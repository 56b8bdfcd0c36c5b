(** A simulated CPU core.

    One core executes one user instruction stream. The kernel is not
    simulated at instruction granularity (the paper's logical clocks
    deliberately exclude kernel instructions); instead, kernel work is
    charged to the core as stall cycles.

    The core implements the machinery RCoE depends on:

    - a PMU-style precise user-branch counter ({!branch_count}) used in
      hardware-assisted counting mode; in compiler-assisted mode the
      counter is architectural state (the reserved register), updated by
      [Cntinc] instructions,
    - a single global instruction breakpoint with x86 resume-flag
      semantics (the kernel sets {!field-bp_suppress} to step over the
      breakpointed instruction) on both profiles; the Arm profile's
      larger debug-exception cost stands for its missing resume flag,
    - interruptible rep-string execution: [Rep_movs] copies one word per
      cycle and can be preempted mid-copy with architecturally-consistent
      register state,
    - an exclusive monitor for [Ldex]/[Stex], cleared by the kernel on
      every kernel entry, so exclusive retry counts can genuinely differ
      between replicas,
    - deterministic per-core timing jitter (a seeded cache-miss model),
      which makes replicas drift so the synchronisation protocol has real
      work to do. *)

type fault =
  | Unmapped of { vaddr : int; write : bool }
  | Write_protect of int
  | Division_by_zero
  | Bad_ip of int
  | Phys_abort of int
      (** Physical access out of range — reached through a corrupted
          page-table entry; the kernel reports it as a kernel data
          abort. *)

type event =
  | Ev_halt
  | Ev_syscall of int
  | Ev_fault of fault
  | Ev_breakpoint  (** The instruction at [ip] has not executed yet. *)

type t = {
  id : int;
  mutable ip : int;
  regs : int array;  (** 16 integer registers. *)
  fregs : float array;  (** 8 FP registers. *)
  mutable stall : int;  (** Remaining stall cycles. *)
  mutable cycles : int;  (** Active (non-blocked) cycles consumed. *)
  mutable instret : int;  (** Instructions retired. *)
  mutable hw_branches : int;  (** PMU user-branch counter. *)
  mutable last_was_cntinc : bool;
      (** True iff the most recently retired instruction was [Cntinc] —
          exposed because the paper's leader election must detect a
          replica preempted between the counter increment and its
          branch. *)
  mutable excl_armed : bool;
  mutable excl_addr : int;
  mutable bp : int option;  (** Global instruction breakpoint. *)
  mutable bp_suppress : bool;  (** Resume-flag: skip [bp] while ip = bp. *)
  mutable halted : bool;
  mutable bus_wait : int;
      (** Consecutive cycles stalled on bus contention; flushed to the
          trace as one span when a token is finally granted. *)
  jitter : Rcoe_util.Rng.t;
}

type env = {
  code : Rcoe_isa.Instr.t array;
  mem : Mem.t;
  pt : Page_table.table;
      (** The address space's page table in [mem]. Loads and stores walk
          it with {!Page_table.ram_addr}, which allocates nothing, and
          take {!Page_table.translate} only for device pages and
          faults. *)
  dev_read : int -> int -> int;  (** device page id, word offset *)
  dev_write : int -> int -> int -> unit;
  bus : Bus.t;
  profile : Arch.profile;
  trace : Rcoe_obs.Trace.t;
      (** Sink for breakpoint fires and bus-stall spans; pass
          [Rcoe_obs.Trace.disabled ()] when not tracing. *)
}

type step_result =
  | Ran
      (** An instruction executed, or the cycle stalled (a stall cycle or
          bus contention, retried next cycle). *)
  | Event of event

val create : id:int -> jitter_seed:int -> t

val step : t -> env -> step_result
(** Advance the core by one global cycle. Consumed cycles are counted in
    [cycles]; events leave the triggering state (ip, registers) for the
    kernel to inspect. [Ev_syscall] retires the syscall instruction (ip
    already advanced); faults do not advance ip. *)

val branch_count : t -> Arch.profile -> int
(** The user branch counter under the profile's counting mode: the PMU
    register (hardware) or the reserved register (compiler-assisted). *)

val clear_exclusive : t -> unit
(** Kernel entry clears the exclusive monitor (as real kernels do). *)

val add_stall : t -> int -> unit
(** Charge kernel-time cycles to the core. *)

val rep_in_progress : t -> env -> bool
(** True if [ip] points at a partially-executed [Rep_movs] — the case
    where a breakpoint cannot name a unique logical time. *)

(** {2 Execution-backend support}

    The pieces of the interpreter that alternative execution backends
    ({!Blockc}) reuse so that their per-instruction semantics are the
    interpreter's own, not a re-implementation. {!step} remains the
    oracle: any backend must be observably identical to it, cycle for
    cycle. *)

exception Take_fault of fault
(** Raised by instruction execution when the access faults; {!step}
    turns it into [Event (Ev_fault f)] and clears the bus-wait run. *)

exception Bus_busy
(** Raised when a bus token cannot be acquired this cycle — before any
    stall or memory effect; {!step} turns it into a stalled [Ran] cycle
    and extends the bus-wait run. *)

val exec : t -> env -> Rcoe_isa.Instr.t -> event option
(** Execute exactly one instruction (or one word of a rep-string) with
    full architectural effect. Raises {!Take_fault} / {!Bus_busy}.
    Backends call this directly for stateful instructions they do not
    specialise. *)

val exec_step : t -> env -> step_result
(** The end of {!step}'s cycle once the instruction at [ip] is due: run
    it with {!exec}, then clear or extend the bus-wait run, flush it, and
    draw the jitter stall, as {!step} does. *)

val load : t -> env -> int -> int
(** One data-memory read at a virtual address: translation, bus
    acquisition, memory-stall charge, then the access. Raises
    {!Take_fault} / {!Bus_busy}. A RAM access allocates nothing. *)

val store : t -> env -> int -> int -> unit
(** One data-memory write at a virtual address; same contract as
    {!load} (including dirty-bit marking via [Mem.write]). *)

val flush_bus_wait : t -> env -> unit
(** Emit any accumulated bus-contention run as a single trace span and
    reset it; called on every successfully executed instruction. *)
