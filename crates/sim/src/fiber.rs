//! Stackful coroutines ("fibers"): the execution vehicle of every simulated
//! process.
//!
//! A fiber is a function running on a stack of its own, on the thread that
//! resumes it. [`Fiber::resume`] switches from the caller's stack to the
//! fiber's; the fiber runs until it calls [`Yielder::suspend`] (or its body
//! returns or unwinds), which switches back. A switch saves the ABI's
//! callee-saved registers on the outgoing stack and restores them from the
//! incoming one — a few dozen instructions, no system call, no scheduler.
//!
//! Invariants the engine relies on:
//!
//! * a fiber only ever runs on the thread that resumes it, and it is
//!   resumed only by the run loop of the `Sim` that owns it, so it starts
//!   and finishes inside one `Sim::run` call, on one thread;
//! * the body runs under `catch_unwind` at the base of the fiber stack, so
//!   no panic crosses a switch; [`Fiber::resume`] reports it instead;
//! * every stack is [`STACK_SIZE`] bytes (std's default thread stack) with
//!   a `PROT_NONE` guard page below it. Overflowing into the guard page
//!   kills the process with `SIGSEGV` (std's overflow message only knows
//!   about thread stacks);
//! * the start trampoline marks the return address undefined in its unwind
//!   info and clears the frame pointer, so unwinders and frame-pointer
//!   walkers stop at the fiber's base instead of walking off its stack.

use std::cell::Cell;
use std::ffi::c_void;
use std::mem::ManuallyDrop;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::rc::Rc;

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
compile_error!("repseq-sim runs processes as coroutines on x86_64 and aarch64 only");
#[cfg(not(any(target_os = "linux", target_os = "macos")))]
compile_error!("repseq-sim allocates coroutine stacks with Linux or macOS mmap flags");

/// Usable stack bytes per fiber: std's default for spawned threads.
const STACK_SIZE: usize = 2 << 20;

/// Symbol names of the assembly routines (Mach-O prefixes an underscore).
#[cfg(target_vendor = "apple")]
macro_rules! asm_sym {
    ($name:literal) => {
        concat!("_", $name)
    };
}
#[cfg(not(target_vendor = "apple"))]
macro_rules! asm_sym {
    ($name:literal) => {
        $name
    };
}

// `repseq_fiber_switch(save, to)`: push the callee-saved registers, store
// the stack pointer through `save`, load `to` as the stack pointer, pop the
// registers saved there and return into that context. The floating-point
// control registers (MXCSR and the x87 control word, FPCR) are not
// switched: nothing in the workspace changes them.
//
// `repseq_fiber_start`: the first return address of a new fiber. Calls the
// entry function (held in a callee-saved register of the initial frame)
// with the control-block pointer (likewise); the entry never returns.
#[cfg(target_arch = "x86_64")]
std::arch::global_asm!(
    ".text",
    ".p2align 4",
    concat!(".globl ", asm_sym!("repseq_fiber_switch")),
    concat!(asm_sym!("repseq_fiber_switch"), ":"),
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "mov qword ptr [rdi], rsp",
    "mov rsp, rsi",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".p2align 4",
    concat!(".globl ", asm_sym!("repseq_fiber_start")),
    concat!(asm_sym!("repseq_fiber_start"), ":"),
    ".cfi_startproc",
    ".cfi_undefined rip",
    "xor ebp, ebp",
    "mov rdi, r12",
    "call r13",
    "ud2",
    ".cfi_endproc",
);

#[cfg(target_arch = "aarch64")]
std::arch::global_asm!(
    ".text",
    ".p2align 2",
    concat!(".globl ", asm_sym!("repseq_fiber_switch")),
    concat!(asm_sym!("repseq_fiber_switch"), ":"),
    "sub sp, sp, #160",
    "stp x19, x20, [sp, #0]",
    "stp x21, x22, [sp, #16]",
    "stp x23, x24, [sp, #32]",
    "stp x25, x26, [sp, #48]",
    "stp x27, x28, [sp, #64]",
    "stp x29, x30, [sp, #80]",
    "stp d8, d9, [sp, #96]",
    "stp d10, d11, [sp, #112]",
    "stp d12, d13, [sp, #128]",
    "stp d14, d15, [sp, #144]",
    "mov x9, sp",
    "str x9, [x0]",
    "mov sp, x1",
    "ldp x19, x20, [sp, #0]",
    "ldp x21, x22, [sp, #16]",
    "ldp x23, x24, [sp, #32]",
    "ldp x25, x26, [sp, #48]",
    "ldp x27, x28, [sp, #64]",
    "ldp x29, x30, [sp, #80]",
    "ldp d8, d9, [sp, #96]",
    "ldp d10, d11, [sp, #112]",
    "ldp d12, d13, [sp, #128]",
    "ldp d14, d15, [sp, #144]",
    "add sp, sp, #160",
    "ret",
    ".p2align 2",
    concat!(".globl ", asm_sym!("repseq_fiber_start")),
    concat!(asm_sym!("repseq_fiber_start"), ":"),
    ".cfi_startproc",
    ".cfi_undefined x30",
    "mov x29, xzr",
    "mov x30, xzr",
    "mov x0, x19",
    "blr x20",
    "brk #1",
    ".cfi_endproc",
);

extern "C" {
    fn repseq_fiber_switch(save: *mut *mut u8, to: *mut u8);
    fn repseq_fiber_start();

    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
    fn sysconf(name: i32) -> i64;
}

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
#[cfg(target_os = "linux")]
const MAP_ANON: i32 = 0x20;
#[cfg(target_os = "macos")]
const MAP_ANON: i32 = 0x1000;
#[cfg(target_os = "linux")]
const SC_PAGESIZE: i32 = 30;
#[cfg(target_os = "macos")]
const SC_PAGESIZE: i32 = 29;

/// An `mmap`ed stack: one guard page at the low end, [`STACK_SIZE`] usable
/// bytes above it. Pages are committed on first touch, so a fiber costs the
/// stack depth it actually reaches.
struct Stack {
    base: *mut u8,
    len: usize,
}

impl Stack {
    fn new() -> Stack {
        // SAFETY: sysconf has no preconditions.
        let page = usize::try_from(unsafe { sysconf(SC_PAGESIZE) }).unwrap_or(4096).max(4096);
        let len = STACK_SIZE + page;
        // SAFETY: an anonymous private mapping at a kernel-chosen address
        // touches no existing memory.
        let base = unsafe {
            mmap(ptr::null_mut(), len, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANON, -1, 0)
        };
        if base as isize == -1 {
            panic!(
                "mmap of a {len}-byte process stack failed: {}",
                std::io::Error::last_os_error()
            );
        }
        // SAFETY: `base` starts a mapping of `len > page` bytes that nothing
        // else references yet.
        if unsafe { mprotect(base, page, PROT_NONE) } != 0 {
            let err = std::io::Error::last_os_error();
            // SAFETY: unmapping the mapping created just above.
            unsafe { munmap(base, len) };
            panic!("mprotect of a process stack guard page failed: {err}");
        }
        Stack { base: base.cast(), len }
    }

    fn top(&self) -> *mut u8 {
        self.base.wrapping_add(self.len)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base`/`len` describe the mapping made in `new`, and
        // `Fiber` drops a stack only when no frame on it is live.
        unsafe { munmap(self.base.cast(), self.len) };
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Created; the body has not started.
    Fresh,
    /// Executing (between a `resume` and the matching switch back).
    Running,
    /// Parked in [`Yielder::suspend`].
    Suspended,
    /// The body returned or unwound.
    Finished { panicked: bool },
}

/// A fiber's body: runs once, with the fiber's [`Yielder`].
type Body = Box<dyn FnOnce(Yielder)>;

/// State shared between a [`Fiber`] (the resuming side) and its
/// [`Yielder`] (the running side). Both only ever touch it from the one
/// thread the fiber runs on.
struct Control {
    state: Cell<State>,
    /// Saved stack pointer of the fiber while it is not running.
    fiber_sp: Cell<*mut u8>,
    /// Saved stack pointer of the resumer while the fiber runs.
    caller_sp: Cell<*mut u8>,
    /// Address range of the fiber's usable stack, for [`Yielder::suspend`]
    /// to check that it is called from this fiber.
    stack_lo: usize,
    stack_hi: usize,
    /// The body; taken when the fiber first runs.
    body: Cell<Option<Body>>,
}

/// A coroutine with its own stack. Dropping a fiber that never started
/// drops its body unrun.
pub(crate) struct Fiber {
    ctl: Rc<Control>,
    stack: ManuallyDrop<Stack>,
}

impl Fiber {
    /// Allocate a stack and prepare `body` to run on it at the first
    /// [`resume`](Self::resume). The body receives the [`Yielder`] through
    /// which it suspends.
    pub(crate) fn new(body: Body) -> Fiber {
        let stack = Stack::new();
        let ctl = Rc::new(Control {
            state: Cell::new(State::Fresh),
            fiber_sp: Cell::new(ptr::null_mut()),
            caller_sp: Cell::new(ptr::null_mut()),
            stack_lo: stack.top() as usize - STACK_SIZE,
            stack_hi: stack.top() as usize,
            body: Cell::new(Some(body)),
        });
        let entry = fiber_main as unsafe extern "C" fn(*const Control) -> ! as usize;
        let arg = Rc::as_ptr(&ctl) as usize;
        let start = repseq_fiber_start as unsafe extern "C" fn() as usize;
        // The initial frame, as `repseq_fiber_switch` pops it: the
        // callee-saved registers, then the return address. The entry
        // function and its argument ride in callee-saved registers; the
        // frame pointer is zero.
        #[cfg(target_arch = "x86_64")]
        let frame: [usize; 7] = {
            // r15, r14, r13 = entry, r12 = arg, rbx, rbp = 0, return.
            // Seven words from a 16-aligned top leave the stack pointer
            // 16-aligned after `ret`, as the trampoline's `call` needs.
            [0, 0, entry, arg, 0, 0, start]
        };
        #[cfg(target_arch = "aarch64")]
        let frame: [usize; 20] = {
            // x19 = arg, x20 = entry, x21..x28, x29 = 0, x30 = return,
            // then d8..d15.
            let mut f = [0usize; 20];
            f[0] = arg;
            f[1] = entry;
            f[11] = start;
            f
        };
        let top = stack.top() as usize & !15;
        #[cfg(target_arch = "x86_64")]
        let sp = (top - 16 - 8 * frame.len()) as *mut usize;
        #[cfg(target_arch = "aarch64")]
        let sp = (top - 8 * frame.len()) as *mut usize;
        // SAFETY: `sp..sp + frame.len()` lies in the top page of the fresh
        // writable stack, which nothing else references.
        unsafe { ptr::copy_nonoverlapping(frame.as_ptr(), sp, frame.len()) };
        ctl.fiber_sp.set(sp.cast());
        Fiber { ctl, stack: ManuallyDrop::new(stack) }
    }

    /// Run the fiber until it suspends (`None`) or finishes
    /// (`Some(panicked)`). Panics if the fiber is running or finished.
    pub(crate) fn resume(&mut self) -> Option<bool> {
        let ctl = &*self.ctl;
        assert!(
            matches!(ctl.state.get(), State::Fresh | State::Suspended),
            "resumed a fiber that is {:?}",
            ctl.state.get()
        );
        ctl.state.set(State::Running);
        // SAFETY: the fiber is fresh (its initial frame is in place) or
        // suspended (its registers are saved at `fiber_sp`), so switching
        // to `fiber_sp` continues it; `caller_sp` receives this stack's
        // context, which the fiber switches back to. The stack stays
        // mapped: `self` is borrowed across the call.
        unsafe { repseq_fiber_switch(ctl.caller_sp.as_ptr(), ctl.fiber_sp.get()) };
        match ctl.state.get() {
            State::Suspended => None,
            State::Finished { panicked } => Some(panicked),
            s => unreachable!("fiber switched back while {s:?}"),
        }
    }

    /// True once the body has started (it may have finished since).
    pub(crate) fn started(&self) -> bool {
        self.ctl.state.get() != State::Fresh
    }
}

impl Drop for Fiber {
    fn drop(&mut self) {
        if self.ctl.state.get() == State::Suspended {
            // Frames on a suspended stack still own resources; unmapping
            // it without running their destructors could free memory other
            // code expects to stay put. The engine finishes every started
            // fiber before dropping it, so this is a last resort: leak the
            // stack.
            return;
        }
        // SAFETY: the fiber is fresh or finished, so no frame on the stack
        // is live, and the stack is dropped exactly once, here.
        unsafe { ManuallyDrop::drop(&mut self.stack) };
    }
}

/// The running side of a fiber: passed to the body, it switches back to
/// the resumer. Not `Send`: it belongs to the fiber's thread.
pub(crate) struct Yielder {
    ctl: Rc<Control>,
}

impl Yielder {
    /// Switch back to the caller of [`Fiber::resume`]; returns when the
    /// fiber is resumed again. Panics when called from anywhere but this
    /// fiber's own stack.
    pub(crate) fn suspend(&self) {
        let ctl = &*self.ctl;
        let here = ptr::addr_of!(ctl) as usize;
        assert!(
            ctl.state.get() == State::Running && (ctl.stack_lo..ctl.stack_hi).contains(&here),
            "a process handle was used outside its own process"
        );
        ctl.state.set(State::Suspended);
        // SAFETY: we are on this fiber's stack (checked above), so
        // `caller_sp` holds the resumer's context saved by `resume`, which
        // is blocked in that switch; our context is saved at `fiber_sp`
        // for the next `resume`.
        unsafe { repseq_fiber_switch(ctl.fiber_sp.as_ptr(), ctl.caller_sp.get()) };
    }
}

/// Base of every fiber stack: run the body under `catch_unwind`, record
/// how it ended and switch back for good.
///
/// # Safety
///
/// Called only by `repseq_fiber_start`, with the pointer of a live
/// `Control` whose fiber is running on the current stack.
unsafe extern "C" fn fiber_main(ctl: *const Control) -> ! {
    // SAFETY: the owning `Fiber` holds a strong reference for as long as
    // this stack is mapped; the yielder takes one more of its own.
    let yielder = unsafe {
        Rc::increment_strong_count(ctl);
        Yielder { ctl: Rc::from_raw(ctl) }
    };
    // SAFETY: as above, the block outlives this frame.
    let ctl = unsafe { &*ctl };
    let body = ctl.body.take().expect("a fiber body runs once");
    let panicked = panic::catch_unwind(AssertUnwindSafe(move || body(yielder))).is_err();
    ctl.state.set(State::Finished { panicked });
    let mut dead: *mut u8 = ptr::null_mut();
    // SAFETY: `caller_sp` is the resumer's context saved by the `resume`
    // that is running this fiber. Nothing on this stack needs dropping, and
    // a finished fiber is never switched to again, so `dead` is never read.
    unsafe { repseq_fiber_switch(&mut dead, ctl.caller_sp.get()) };
    unreachable!("a finished fiber was resumed")
}
