(** The redundant co-execution engine.

    Owns the machine, the per-replica kernels, and the synchronisation
    protocol of Section III:

    - Interrupts (the preemption tick and device IRQs) are received
      conceptually by the primary; the engine raises IPIs to every live
      replica, each of which joins the round at its next kernel entry and
      publishes its logical time in the shared region.
    - Once all have published, the leading replica is elected by logical
      time. LC followers resume until their event count reaches the
      leader's; CC followers additionally catch up to the leader's exact
      instruction position using a global breakpoint (paying one debug
      exception per hit, a larger one on Arm, plus VM exits when
      virtualised — the costs Sections III-D/F analyse). A replica
      stopped at a rep-string instruction cannot publish a precise
      position; it first steps past it (paying a guest-page-walk cost in
      a VM).
    - At the barrier the replicas vote on their three-word signatures.
      Mismatch in a DMR (or unmasked) system halts it; a masked TMR
      system runs the Listing-5 vote and downgrades to DMR, re-electing
      a primary and patching DMA page mappings when the primary was the
      faulty one (Section IV).
    - [FT_*] syscalls and (at sync level S) every syscall are rendezvous
      points: all replicas meet at the same event count, the operation
      executes once against the device with its data folded into every
      signature, and a vote runs.

    A replica that hangs, diverges, or crashes fails to join within
    [barrier_timeout] and the round times out — the paper's second
    detection mechanism. *)

type halt_reason =
  | H_mismatch  (** Signature divergence detected; no masking possible. *)
  | H_no_consensus  (** Listing-5 vote failed to agree on the faulter. *)
  | H_timeout  (** Barrier timeout: straggling or hung replica. *)
  | H_kernel_exception of string
      (** Uncontrolled kernel abort (x86 without exception barriers). *)
  | H_masking_blocked
      (** Faulty primary during device I/O: downgrade is unsafe. *)

val halt_reason_to_string : halt_reason -> string

type event_kind =
  | E_user_fault of int  (** rid *)
  | E_kernel_abort of int
  | E_mismatch
  | E_timeout
  | E_downgrade of int  (** removed rid *)
  | E_reintegrate of int  (** re-admitted rid *)
  | E_rollback of int
      (** Rollback recovery: cycle of the checkpoint rewound to. *)
  | E_ingress_drop of int
      (** Ingress-checksum mismatch: the request sequence id parsed from
          the dropped frame ([-1] when unparseable). *)

type t

val create_result :
  config:Config.t -> program:Rcoe_isa.Program.t -> (t, string) result
(** Validates the configuration and program compatibility (CC forbids
    exclusives; compiler-assisted profiles require a branch-counted
    program), runs the static analyzer ({!Rcoe_isa.Lint.analyze}),
    builds the machine, partitions memory, sets up one kernel per
    replica with role-dependent device mappings, and spawns the
    program's main thread everywhere. Networked configurations
    additionally run the footprint analyzer ({!Eligibility.check});
    its verdict decides whether [with_net] may use the parallel engine.
    Returns [Error reason] for an invalid configuration — including,
    when {!Config.strict_lint} is set, a lint-rejected program or a racy
    ({!Rcoe_isa.Lint.CC_required}) program under LC coupling, and, for
    [engine = Parallel] with [with_net], a program whose footprint the
    analyzer could not prove free of raw device-ring accesses (the
    reason carries the per-instruction provenance). *)

val create : config:Config.t -> program:Rcoe_isa.Program.t -> t
(** {!create_result}, raising [Invalid_argument "System.create: reason"]
    on [Error reason]. *)

val lint_report : t -> Rcoe_isa.Lint.report
(** The static-analysis report computed at [create] time. *)

val lint_warnings : t -> string list
(** Warning-severity lint messages (data races, unresolvable spawns) —
    what an LC run should surface before silently risking divergence. *)

val eligibility : t -> Eligibility.t option
(** The footprint analyzer's parallel-eligibility report, computed at
    [create] time for every networked configuration regardless of
    engine ([None] when [with_net] is off). An [Eligible] verdict is
    what admitted a networked configuration to the parallel engine; an
    [Ineligible] one carries instruction-address provenance for each
    device-region access the analysis could not rule out. *)

val config : t -> Config.t
val machine : t -> Rcoe_machine.Machine.t
val layout : t -> Rcoe_kernel.Layout.t
val netdev : t -> Rcoe_machine.Netdev.t option
val kernel : t -> int -> Rcoe_kernel.Kernel.t
val primary : t -> int
val live : t -> int list
val now : t -> int

val metrics : t -> Rcoe_obs.Metrics.t
(** The full counter/gauge/histogram registry: round, vote, tick and
    catch-up counters, catch-up distances, barrier waits, VM exits,
    detection latencies, … — the per-phase quantities of paper Tables
    II/V/X. *)

val counter : t -> string -> int
(** The value of the named counter in {!metrics}, e.g.
    ["sync.rounds"], ["kernel.ticks_delivered"], ["sync.votes"],
    ["catchup.bp_fires"], ["sync.ft_rounds"], ["sync.rendezvous"].
    Raises [Invalid_argument] if no counter of that name is
    registered. *)

val trace : t -> Rcoe_obs.Trace.t
(** The structured execution trace. Disabled (and free) unless
    {!Config.trace} was set; export with {!Rcoe_obs.Export}. *)

val run : ?stop:(t -> bool) -> t -> max_cycles:int -> unit
(** Advance the simulation until the program finishes on every live
    replica, the system halts, [max_cycles] elapse (counted from this
    call), or [stop] returns true (checked every 128 cycles).

    Dispatches on {!Config.engine}:

    - [Sequential] steps every replica on the calling domain, one
      simulated cycle at a time — the reference semantics. A replicated
      run on the [Blocks] backend that is eligible for [Parallel],
      traced or not, instead runs [Parallel]'s execution windows, each
      replica's window inline in turn and each replica bursting
      between core events; the result is bit-for-bit the same.
    - [Parallel] runs each live replica's between-sync-point stretch on
      its own host domain ([Domain.t]) and replays the round/vote logic
      at a window boundary on the calling domain. The contract is
      {b bit-for-bit determinism}: final cycle, outputs, votes, halt
      reasons, metrics, event log, and cycle-stamped trace events are
      identical to [Sequential] for any eligible configuration (see
      {!Config.parallel_ineligibility}). The [test/test_engine_par.ml]
      suite enforces this across LC/CC x DMR/TMR, fault injection,
      rollback recovery and masking.

    Checkpoint capture, rollback, and fault injection between [run]
    calls need no extra care under [Parallel]: worker domains exist
    only inside a call to [run], and within one they are quiescent
    (parked at a barrier) whenever round logic — including
    {!Checkpoint} capture/restore — executes. *)

val replay_drain : t -> unit
(** Under {!Config.Replay} detection, close the accumulating chunk and
    block until every in-flight chunk's verdict has been harvested —
    the pipeline is empty on return. Serving harnesses call this once
    the client is done: the guest service loops forever, so [run]'s
    terminal drain never fires and up to [replay_queue_depth - 1]
    chunks would otherwise end the session unverified. A mismatch
    found here recovers (or halts) through the normal rollback path.
    No-op under [Lockstep] detection. *)

val finished : t -> bool
val halted : t -> halt_reason option

val downgrades : t -> (int * int * int) list
(** [(cycle, removed_rid, downgrade_cycles)] — most recent first. *)

val request_reintegration : t -> rid:int -> (unit, string) result
(** Extension (paper Section IV-C): schedule a previously removed
    replica to be re-admitted at the end of the next synchronisation
    round, by copying a healthy non-primary replica's full partition
    (kernel and user state), rebasing its page table, and adopting its
    execution state — upgrading DMR back to TMR without a reboot. *)

val reintegrations : t -> (int * int) list
(** [(cycle, rid)] re-admissions, most recent first. *)

val rollbacks : t -> (int * int) list
(** [(detected_at, checkpoint_cycle)] rollback recoveries, most recent
    first. Non-empty iff the run recovered from at least one detection
    that would otherwise have halted it. Enabled by
    {!Config.checkpoint_every} > 0: after every successfully voted
    round (at the configured interval) the engine snapshots all
    replicated state into a bounded ring ({!Checkpoint}); a DMR
    signature mismatch, a failed masking vote, or a blocked downgrade
    then rewinds to the newest verified snapshot and re-executes,
    with a [max_rollbacks] budget and exponential escalation to older
    snapshots, so persistent faults still fail-stop. Under replay
    detection a checker mismatch rewinds to the mismatching chunk's
    start image instead (see {!Config.detection}). *)

val checkpoints_taken : t -> int
(** Verified checkpoints captured over the run; under replay detection,
    every frozen chunk image (the setup image, one per cut, one re-seed
    per rollback). *)

val events : t -> (int * event_kind) list
(** Notable events with their cycle, most recent first. Bounded: long
    fault-injection campaigns keep only the newest ~2048 entries. *)

val output : t -> int -> string
(** Replica [rid]'s console output. *)

val replica_done : t -> int -> bool

val tick_count : t -> int

val set_after_save_hook :
  t -> (rid:int -> tid:int -> ctx_addr:int -> unit) option -> unit
(** Hook running after a preempted thread's context is saved — the
    register fault injector's window. *)

val sig_base : t -> int -> int
(** Physical address of replica [rid]'s signature accumulator (for the
    fault injector and tests). *)

val replica_state_name : t -> int -> string
(** Diagnostic: the replica's engine state plus the global phase. *)
