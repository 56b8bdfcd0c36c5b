(** The per-replica microkernel.

    seL4-flavoured mechanisms: threads with contexts saved in kernel
    memory, a round-robin scheduler driven by *synchronized* preemption
    ticks (the replication engine decides when a tick is delivered, so
    all replicas switch threads at the same logical time), an address
    space backed by an in-memory page table, and a small syscall set.
    Device drivers are ordinary user threads; which physical pages their
    MMIO/DMA windows alias is decided per replica role by the replication
    engine through {!map_page}.

    The kernel implements only replica-local mechanisms. Everything
    cross-replica — signatures, barriers, voting, the FT_* syscalls,
    interrupt delivery — lives in the [rcoe] library, which drives this
    module. Policy callbacks ({!callbacks}) let the engine observe kernel
    state updates (for the signature) and answer [get_info] queries. *)

type thread_state =
  | T_ready
  | T_running
  | T_blocked_irq of int  (** device page id *)
  | T_blocked_join of int  (** tid *)
  | T_blocked_input  (** LC input-replication rendezvous *)
  | T_exited

type thread = {
  tid : int;
  mutable tstate : thread_state;
  ctx_addr : int;  (** Physical address of the saved context. *)
  entry : int;
}

type t

type callbacks = {
  cb_info : int -> int -> int;
      (** [cb_info rid key]: answers [Sys_get_info]. *)
  cb_kernel_update : int -> int array -> unit;
      (** [cb_kernel_update rid words]: a kernel state update to fold
          into the replica's signature (page-table writes, thread
          lifecycle events, scheduling decisions). *)
}

type syscall_result =
  | Sr_local  (** Handled here (thread may have blocked or exited). *)
  | Sr_ft of { num : int; args : int array }
      (** An FT_* synchronisation-point syscall for the engine. *)

type fault_disposition =
  | Fd_user_fault  (** Memory fault in user code; thread killed. *)
  | Fd_user_exception  (** Other user exception; thread killed. *)
  | Fd_kernel_abort of int
      (** Physical abort through a corrupted translation — the
          simulated counterpart of the paper's kernel data aborts. *)

val create :
  ?trace:Rcoe_obs.Trace.t ->
  ?backend:Rcoe_machine.Blockc.backend ->
  machine:Rcoe_machine.Machine.t ->
  rid:int ->
  core_id:int ->
  layout:Layout.t ->
  program:Rcoe_isa.Program.t ->
  callbacks:callbacks ->
  unit ->
  t
(** [trace] overrides the sink for this kernel's replica-scope trace
    events (syscall dispatch, preemptions, faults, bus stalls); it
    defaults to the machine's trace. The replication engine passes a
    per-replica child trace ({!Rcoe_obs.Trace.child}) so replicas can
    record events concurrently from separate domains. The kernel's core
    uses the machine's per-core bus lane
    ({!Rcoe_machine.Machine.bus_lane}).

    [backend] selects the execution backend {!step} dispatches to:
    the oracle interpreter ([Interp], default) or the block compiler
    ([Blocks]) — observably identical, cycle for cycle. The kernel also
    takes a private copy of the program's code array at creation, so
    self-modifying patches ({!patch_code}) stay replica-local. *)

val step : t -> Rcoe_machine.Core.step_result
(** Advance this kernel's core by one architectural cycle through the
    configured execution backend: {!Rcoe_machine.Core.step}, or a
    one-cycle {!Rcoe_machine.Blockc.run}. Either way the core's own bus
    lane ({!Rcoe_machine.Machine.bus_lane}) ticks once for the cycle,
    also when the core is halted, so callers never tick it themselves.
    Engines must call this instead of [Core.step] directly so backend
    selection applies uniformly (including catch-up replay). *)

val block_cache : t -> Rcoe_machine.Blockc.t option
(** The block-compiler cache, when the [Blocks] backend is active —
    diagnostic surface for tests and benches ({!Rcoe_machine.Blockc.stats}). *)

val patch_code : t -> addr:int -> Rcoe_isa.Instr.t -> unit
(** Overwrite one instruction in this kernel's private code image and
    invalidate the block cache for its page. Raises [Invalid_argument]
    out of code bounds. Guests reach this through the
    {!Syscall.sys_code_patch} syscall; checkpoint {!restore} and
    {!adopt_runtime_from} undo/adopt patches as part of their
    contract. *)

val rid : t -> int
val core : t -> Rcoe_machine.Core.t
val env : t -> Rcoe_machine.Core.env
val layout : t -> Layout.t
val partition : t -> Layout.partition
val program : t -> Rcoe_isa.Program.t
val output : t -> Buffer.t
(** Everything the replica wrote with [Sys_putchar]. *)

(* --- address space --------------------------------------------------- *)

val map_page : ?quiet:bool -> t -> vpn:int -> Rcoe_machine.Page_table.pte -> unit
(** Write a PTE. Unless [quiet], the update is reported through
    [cb_kernel_update] with the frame number expressed *relative to the
    replica's partition* (absolute frame numbers necessarily differ
    between replicas, but relative ones are identical for replicated
    execution, so they can be checksummed). [quiet] is for
    role-dependent mappings — device windows and primary promotion —
    which legitimately differ between replicas. *)

val map_range : t -> va:int -> words:int -> ppn0:int ->
  writable:bool -> dma:bool -> device:bool -> unit
(** Map consecutive pages starting at [va] to frames [ppn0], [ppn0+1]…
    [va] must be page-aligned. *)

val alloc_frame : t -> int
(** Bump-allocate a user frame; returns its physical page number.
    Raises [Failure] when the partition is exhausted. *)

val used_user_words : t -> int
(** Words of the user area handed out by the low-end frame allocator
    (data segment, stacks) — the part of the partition that actually
    holds live state, which is what fault-injection campaigns should
    target. *)

val alloc_frame_high : t -> int
(** Allocate a frame from the top of the partition. Used for
    role-dependent frames (MMIO aliases, DMA shadows) so that the number
    of low-end allocations — and hence the partition-relative frame
    number of every replicated allocation — stays identical across
    replicas. *)

val setup_address_space : t -> unit
(** Map and initialise the program's data segment and the scratch page.
    Stacks are mapped on demand by {!spawn}. *)

val dma_pages_mapped : t -> int list
(** Virtual page numbers currently mapped with the DMA mark — what the
    masking code must re-route when the primary is removed. *)

(* --- threads and scheduling ------------------------------------------ *)

val spawn : t -> entry:int -> arg:int -> int
(** Create a thread (maps its stack, initialises its context, enqueues
    it). Raises [Failure] past {!Layout.max_threads}. *)

val start : t -> unit
(** Load the first runnable thread onto the core. Call once after
    {!spawn}ing the initial thread. *)

val current_tid : t -> int
(** [-1] when idle. *)

val thread : t -> int -> thread

val preempt : ?after_save:(tid:int -> ctx_addr:int -> unit) -> t -> unit
(** Timer tick: round-robin to the next ready thread (no-op when none).
    [after_save] runs after the outgoing context has been written to
    memory and before the next thread is loaded — the window in which the
    paper's register fault injector flips a bit in the saved user state
    (Section V-C2). *)

val exit_current : t -> unit
(** Terminate the current thread (used for the bare-metal [Halt]). *)

val block_current : t -> thread_state -> unit
(** Save the current thread with the given blocked state and schedule
    the next ready thread (or go idle). *)

val unblock : t -> int -> unit
(** Make a blocked thread ready; if the core is idle, dispatch it. *)

val wake_irq_waiters : t -> dpn:int -> int
val wake_input_waiters : t -> int

val runnable : t -> bool
(** A thread is on the core or ready to run. *)

val all_exited : t -> bool

val live_thread_count : t -> int

(* --- syscalls and faults --------------------------------------------- *)

val handle_syscall : t -> int -> syscall_result
(** Dispatch a [Core.Ev_syscall]. Charges the syscall cost to the core.
    The syscall instruction has already retired; results go to [r0]. *)

val handle_fault : t -> Rcoe_machine.Core.fault -> fault_disposition
(** Kill the faulting thread and schedule away. *)

val last_fault : t -> (int * Rcoe_machine.Core.fault) option
(** The most recent (tid, fault) that killed a thread, if any. *)

(* --- user-memory access (kernel copyin/copyout) ---------------------- *)

exception User_mem_error of int
(** A user virtual address did not translate (argument of the failing
    va). *)

val read_user : t -> va:int -> int
val write_user : t -> va:int -> int -> unit
val read_user_block : t -> va:int -> len:int -> int array
val write_user_block : t -> va:int -> int array -> unit

val translate_mmio : t -> va:int -> (int * int) option
(** If [va] maps to a device page in this replica's address space,
    [(device page id, word offset)]. *)

type snapshot
(** A copy of this kernel's runtime bookkeeping (threads, scheduler
    queue, interrupt latches, allocator positions, console-output
    length, last fault) and the core's architectural state. Memory —
    contexts, page table, user frames — is not included: checkpointing
    engines snapshot the whole partition separately. *)

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** Restore the state captured by {!snapshot}. The caller must restore
    the partition memory to the matching point itself (the snapshot and
    the partition image form one consistent cut). Console output written
    after the snapshot is truncated away, any armed breakpoint is
    cleared, and the core's halted flag is restored — a replica halted
    after the capture comes back alive. *)

val adopt_runtime_from : t -> src:t -> unit
(** Re-integration support (paper Section IV-C): after the engine has
    copied the source replica's entire partition into this replica's
    partition (and rebased the page-table frame numbers), adopt the
    source kernel's runtime bookkeeping — threads, scheduler queue,
    interrupt latches, frame-allocator positions — and the source core's
    register state, so this replica resumes execution at exactly the
    source's position. *)
