//! The Appendix A context switch, ported instruction for instruction.
//!
//! `save_context_and_call(parent, f, arg)` pushes the parent-context
//! pointer, the six callee-saved registers, the stack pointer and a
//! resume address onto the *current* stack — that 72-byte record *is* the
//! [`Context`] — then calls `f(ctx, arg)` on the same stack. If `f`
//! returns normally, the record is popped and the function returns to its
//! caller. Alternatively, any thread that owns the record (possibly
//! another worker, possibly after the record's stack bytes were copied
//! back into place) can jump into it with `resume_context(ctx)`, which
//! lands at the same epilogue.
//!
//! This is the entire machinery the paper needs from assembly ("The
//! library is implemented in C++ and a few assembly codes", Section 7).

use std::arch::global_asm;

/// The 72-byte on-stack context record (Appendix A's `context_t`).
///
/// Field order matches the push sequence in the assembly below — do not
/// reorder.
#[repr(C)]
#[derive(Debug)]
pub struct Context {
    /// Resume instruction pointer (the label after the call site).
    pub rip: u64,
    /// Saved stack pointer; always equals the address of this record.
    pub rsp: u64,
    /// Callee-saved registers.
    pub rbp: u64,
    /// Callee-saved.
    pub rbx: u64,
    /// Callee-saved.
    pub r12: u64,
    /// Callee-saved.
    pub r13: u64,
    /// Callee-saved.
    pub r14: u64,
    /// Callee-saved.
    pub r15: u64,
    /// The parent thread's context (Figure 4's bookkeeping).
    pub parent: *mut Context,
}

/// `f(ctx, arg)` — the function `save_context_and_call` transfers to.
pub type ContextFn = unsafe extern "C" fn(*mut Context, *mut core::ffi::c_void);

unsafe extern "C" {
    /// Save the current continuation as a [`Context`] on this stack and
    /// call `f(ctx, arg)`.
    ///
    /// Returns when either `f` returns normally or someone calls
    /// [`resume_context`] on `ctx`.
    ///
    /// # Safety
    /// `f` must either return normally exactly once *or* never return
    /// (having transferred control elsewhere); `ctx` may be resumed at
    /// most once, and only while the 72 bytes at `ctx` hold the saved
    /// record (they may have been copied out and back in the meantime —
    /// that is the uni-address trick). No unwinding may cross this frame.
    pub fn save_context_and_call(parent: *mut Context, f: ContextFn, arg: *mut core::ffi::c_void);

    /// Jump into a saved context: `rsp = ctx; ret`.
    ///
    /// # Safety
    /// `ctx` must be a live record produced by [`save_context_and_call`]
    /// whose stack memory above it is intact, and must not be resumed
    /// twice. Never returns.
    pub fn resume_context(ctx: *mut Context) -> !;

    /// Move the stack pointer to `new_sp` (16-byte aligned, top of a
    /// fresh stack) and call `f(arg)` there. `f` must never return —
    /// the fresh stack has no frame to return to (this is the paper's
    /// `CALL_WITH_SAFE_SP`, Figure 7).
    ///
    /// # Safety
    /// `new_sp` must be the top of a mapped, writable stack; `f` must
    /// transfer control away (e.g. via [`resume_context`]) instead of
    /// returning.
    pub fn switch_stack_and_call(
        new_sp: *mut u8,
        f: unsafe extern "C" fn(*mut core::ffi::c_void) -> !,
        arg: *mut core::ffi::c_void,
    ) -> !;
}

// The Appendix A listing, in AT&T syntax as printed in the paper.
global_asm!(
    r#"
    .text
    .globl save_context_and_call
    .type save_context_and_call, @function
save_context_and_call:
    .cfi_startproc
    push %rdi              /* save parent context */
    push %r15              /* save callee-saved regs */
    push %r14
    push %r13
    push %r12
    push %rbx
    push %rbp
    lea  -16(%rsp), %rax   /* save current SP (== &ctx after 2 pushes) */
    push %rax
    lea  1f(%rip), %rax    /* save IP for resume */
    push %rax
    /* call a thread start function */
    mov  %rsi, %rax        /* function f */
    mov  %rsp, %rdi        /* argument ctx */
    mov  %rdx, %rsi        /* argument arg */
    call *%rax
    add  $8, %rsp          /* pop IP */
1:  /* here, jumped from resume_context */
    add  $8, %rsp          /* pop SP */
    pop  %rbp              /* restore callee-saved regs */
    pop  %rbx
    pop  %r12
    pop  %r13
    pop  %r14
    pop  %r15
    add  $8, %rsp          /* pop parent context */
    ret
    .cfi_endproc
    .size save_context_and_call, . - save_context_and_call

    .globl resume_context
    .type resume_context, @function
resume_context:
    .cfi_startproc
    mov  %rdi, %rsp        /* restore SP (== ctx) */
    ret                    /* pop IP and restore it */
    .cfi_endproc
    .size resume_context, . - resume_context

    .globl switch_stack_and_call
    .type switch_stack_and_call, @function
switch_stack_and_call:
    .cfi_startproc
    mov  %rdi, %rsp        /* SP = top of the fresh stack (16-aligned) */
    .cfi_undefined rip     /* the fresh stack has no caller: unwinding ends here */
    mov  %rsi, %rax        /* f */
    mov  %rdx, %rdi        /* arg */
    call *%rax             /* f(arg); leaves SP ≡ 8 (mod 16) per ABI */
    ud2                    /* f must not return */
    .cfi_endproc
    .size switch_stack_and_call, . - switch_stack_and_call
"#,
    options(att_syntax)
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::ffi::c_void;

    /// f returns normally: save_context_and_call behaves like a call.
    #[test]
    fn normal_return_path() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static HIT: AtomicU64 = AtomicU64::new(0);
        unsafe extern "C" fn f(ctx: *mut Context, arg: *mut c_void) {
            HIT.store(arg as u64, Ordering::Relaxed);
            // SAFETY: [I5] ctx points at the record save_context_and_call just
            // built on the caller's stack, live until f returns.
            unsafe {
                // The context records this very stack: rsp == ctx.
                assert_eq!((*ctx).rsp, ctx as u64);
                assert!((*ctx).rip != 0);
            }
        }
        // SAFETY: [I5] f returns normally, so this behaves as a plain call.
        unsafe {
            save_context_and_call(std::ptr::null_mut(), f, 42usize as *mut c_void);
        }
        assert_eq!(HIT.load(Ordering::Relaxed), 42);
        // Callee-saved state survived (the compiler checks this for us by
        // the test simply not crashing, but exercise some register
        // pressure to be sure).
        let vals: Vec<u64> = (0..64).collect();
        // SAFETY: [I5] as above; f returns normally.
        unsafe {
            save_context_and_call(std::ptr::null_mut(), f, 7 as *mut c_void);
        }
        assert_eq!(vals.iter().sum::<u64>(), 2016);
    }

    /// f never returns; instead the saved context is resumed explicitly —
    /// the runtime's suspend path in miniature.
    #[test]
    fn resume_path() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static STAGE: AtomicU64 = AtomicU64::new(0);
        unsafe extern "C" fn f(ctx: *mut Context, _arg: *mut c_void) {
            STAGE.store(1, Ordering::Relaxed);
            // SAFETY: [I5] ctx is the caller's live continuation, resumed
            // exactly once, with only Copy locals live in f.
            unsafe { resume_context(ctx) }
        }
        // SAFETY: [I5] f diverges into the saved context; control returns
        // here exactly once via that resume.
        unsafe {
            save_context_and_call(std::ptr::null_mut(), f, std::ptr::null_mut());
        }
        assert_eq!(
            STAGE.load(Ordering::Relaxed),
            1,
            "f ran, then jumped back here via resume"
        );
    }

    /// The parent pointer rides along in the record.
    #[test]
    fn parent_pointer_stored() {
        unsafe extern "C" fn f(ctx: *mut Context, arg: *mut c_void) {
            // SAFETY: [I5] ctx is the live record on the caller's stack; the
            // parent field is only compared, never dereferenced.
            unsafe {
                assert_eq!((*ctx).parent, arg as *mut Context);
            }
        }
        let fake_parent = 0x1234_5678usize as *mut Context;
        // SAFETY: [I5] f returns normally; the fake parent pointer is stored
        // in the record but never dereferenced.
        unsafe {
            save_context_and_call(fake_parent, f, fake_parent as *mut c_void);
        }
    }

    /// Nested saves: a context within a context, resumed inner-first.
    #[test]
    fn nested_contexts() {
        static mut TRACE: Vec<u32> = Vec::new();
        unsafe extern "C" fn inner(ctx: *mut Context, _arg: *mut c_void) {
            // SAFETY: [I5] single-threaded test, so the static TRACE has no
            // concurrent access; ctx is outer's live continuation,
            // resumed exactly once.
            unsafe {
                (*std::ptr::addr_of_mut!(TRACE)).push(2);
                resume_context(ctx);
            }
        }
        unsafe extern "C" fn outer(ctx: *mut Context, _arg: *mut c_void) {
            // SAFETY: [I5] same single-threaded TRACE access; the nested save
            // returns here via inner's resume, then ctx (the test body's
            // continuation) is resumed exactly once.
            unsafe {
                (*std::ptr::addr_of_mut!(TRACE)).push(1);
                save_context_and_call(std::ptr::null_mut(), inner, std::ptr::null_mut());
                (*std::ptr::addr_of_mut!(TRACE)).push(3);
                resume_context(ctx);
            }
        }
        // SAFETY: [I5] outer diverges into the saved context; TRACE is only
        // touched from this one thread.
        unsafe {
            save_context_and_call(std::ptr::null_mut(), outer, std::ptr::null_mut());
            (*std::ptr::addr_of_mut!(TRACE)).push(4);
            assert_eq!(&*std::ptr::addr_of!(TRACE), &vec![1, 2, 3, 4]);
        }
    }

    /// The record layout matches the assembly's push order.
    #[test]
    fn record_layout() {
        assert_eq!(std::mem::size_of::<Context>(), 72);
        assert_eq!(std::mem::offset_of!(Context, rip), 0);
        assert_eq!(std::mem::offset_of!(Context, rsp), 8);
        assert_eq!(std::mem::offset_of!(Context, rbp), 16);
        assert_eq!(std::mem::offset_of!(Context, parent), 64);
    }
}
