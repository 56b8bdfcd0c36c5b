(** Replication configuration.

    The paper's design space: coupling mode (none / loosely / closely
    coupled), redundancy level (DMR / TMR), architecture profile,
    signature effort (the N / A / S trade-off of Section V-B),
    virtualisation, and error-masking options. *)

type mode = Base | LC | CC

type sync_level =
  | Sync_none  (** "N": synchronise on I/O only. *)
  | Sync_args  (** "A": add syscall number and arguments to the
                   signature (the paper's default). *)
  | Sync_vote  (** "S": additionally vote on every system call. *)

(** Execution engine for {!System.run}. Both engines compute the same
    simulation: [Parallel] is required to be bit-for-bit identical to
    [Sequential] — same cycle counts, signatures, votes, outcomes,
    metrics, and cycle-stamped trace events — it only changes which host
    domain steps each replica between sync points. *)
type engine =
  | Sequential
      (** Step replicas round-robin on the calling domain. A replicated
          run on [Blocks] that is eligible for [Parallel]
          ({!parallel_ineligibility} = [None]), traced or not, runs the
          same execution windows as [Parallel], each replica's window
          inline in turn; every other run steps cycle by cycle, apart
          from the quiet cycles [Blocks] takes in one step. *)
  | Parallel
      (** Step each live replica's partition on its own [Domain.t]
          between sync points; barriers, voting, IPIs, and all shared
          machine state stay on the orchestrating domain. Changes
          nothing for an unreplicated run, which opens no windows and
          runs exactly as on [Sequential]. *)

(** Execution backend for every replica core (see
    {!Rcoe_machine.Blockc}). Both backends compute the same simulation:
    [Blocks] is required to be bit-for-bit and cycle-for-cycle identical
    to [Interp] — same cycle counts, signatures, votes, outcomes,
    breakpoint/IRQ delivery points, trace events, and dirty bits — it
    only removes the per-cycle decode/dispatch work. The interpreter is
    the oracle; [test/test_exec_blocks.ml] and the [bench exec] baseline
    rows hold the two identical. Orthogonal to {!engine}: either backend
    composes with either engine. *)
type exec_backend =
  | Interp  (** Decode every instruction on every cycle ([Core.step]). *)
  | Blocks
      (** Pre-decode each code page once into closures with operands
          resolved; invalidated on self-modifying patches. A run, traced
          or not, also bursts through stretches of cycles without the
          per-cycle engine shell: a replicated run eligible for
          [Parallel] between core events inside execution windows, on
          either engine. Outside those, any run takes a stretch of
          quiet cycles in one step: at most one replica executes, up to
          its first core event, while every other one is stalled, idle
          or spinning at a barrier, and no tick, IPI, frame delivery,
          timeout or round completion is due. An unreplicated run
          bursts this way from event to event, a catch-up or chase
          while its leader waits. Cycles in which two replicas execute
          without exception barriers stay per cycle. *)

(** How divergence is detected (the two ends of the paper's sync-cost
    trade-off curve, the second populated by RepTFD-style replay). *)
type detection =
  | Lockstep
      (** Replicas synchronise and vote at every round — detection is
          immediate, sync cost sits on the critical path of every
          redundant cycle. The default; all replicated modes use it. *)
  | Replay
      (** An unreplicated primary (mode [Base]) runs ahead at native
          speed, cutting its execution into chunks at preemption-tick
          boundaries. Each chunk is a (start image, input log) pair
          pushed into a bounded queue — the image a standalone full
          snapshot plus the outside-SoR state, its capture stall priced
          as a delta checkpoint; checker [Domain.t]s restore the
          chunk's start image into a shadow machine, replay the logged
          host inputs, and compare end-of-chunk Fletcher signatures. A
          mismatch rolls the primary back to the chunk's start image
          through the lockstep rollback's restore path, within
          [max_rollbacks]; a second mismatch before any chunk verifies
          fail-stops.
          Sync overhead ~0; detection lag is bounded by
          [replay_chunk_ticks * tick_interval * replay_queue_depth].
          See {!Engine_replay}. *)

(** How {!checkpoint_every} captures state. *)
type checkpoint_mode =
  | Full
      (** Every capture copies every live partition, the shared region
          and the DMA window outright (the host shares all-zero pages),
          and every restore writes every page: the reference that reads
          no write tracking. *)
  | Incremental
      (** Each capture is taken against the image memory was last
          synced to, over {!Rcoe_machine.Mem}'s per-page write tracking:
          it copies and is priced at only the pages dirtied since and
          shares the rest, O(dirty pages) per checkpoint; a restore
          writes only the pages that are dirty or differ. Restored
          memory is bit-for-bit what [Full] restores. The default;
          [Full] is kept for differential testing. *)

type t = {
  engine : engine;  (** Default [Sequential]. See {!parallel_ineligibility}. *)
  mode : mode;
  nreplicas : int;  (** 1 for [Base]; 2 (DMR) or 3+ (TMR) otherwise. *)
  arch : Rcoe_machine.Arch.t;
  sync_level : sync_level;
  vm : bool;  (** Run the workload as a guest: kernel crossings and debug
                  exceptions pay VM-exit costs (x86 only, like the
                  paper). *)
  tick_interval : int;  (** Cycles between synchronized preemption ticks. *)
  barrier_timeout : int;  (** Spin budget before declaring divergence. *)
  user_words : int;  (** User-frame area per replica partition. *)
  seed : int;
  exception_barriers : bool;
      (** Catch kernel data aborts with barriers (the Arm configuration
          of Table VII) instead of letting them become uncontrolled
          kernel exceptions. *)
  masking : bool;  (** Enable TMR->DMR downgrade on signature mismatch. *)
  timeout_masking : bool;
      (** Extension (paper Section IV-A calls it "not hard to lift"):
          also downgrade on a barrier timeout by shutting down the one
          straggling replica, instead of halting. Requires [masking]. *)
  fast_catchup : bool;
      (** Extension (paper Section VI): when a catching-up CC replica is
          many branches behind the leader, use a PMU-overflow interrupt
          to skip most of the distance and arm the breakpoint only for
          the final stretch, instead of taking a debug exception on
          every pass over the leader's address. *)
  trace_output : bool;
      (** Honour [FT_Add_Trace] (the LC-*-N rows of Table VII set this
          to false to show the cost of losing driver output voting). *)
  with_net : bool;  (** Attach the network device. *)
  ingress_check : bool;
      (** Verify DMA ingress payloads against the NIC's enqueue-time
          checksum (RX_CSUM) before they are consumed: [FT_Mem_Rep]
          recomputes the frame checksum over the buffer it actually
          read, folds the verified digest into every replica's
          signature, and on mismatch drops the frame via RX_NACK
          instead of delivering it — the corruption sits outside every
          checkpoint, so rollback cannot repair it; client
          retransmission re-delivers the frame instead. Off by default:
          the unchecked path preserves the paper's Table VII residual
          vulnerability for comparison. *)
  strict_lint : bool;
      (** Fail {!System.create} when the static analyzer rejects the
          program, or when it requires CC and the configuration couples
          loosely (an LC run of a racy program silently risks
          divergence). Off by default: the report is still computed and
          exposed via {!System.lint_report}. *)
  trace : Rcoe_obs.Trace.config option;
      (** Record a structured execution trace ({!Rcoe_obs.Trace}) with
          the given ring capacity. [None] (the default) keeps tracing
          disabled and instrumentation free. *)
  checkpoint_every : int;
      (** Capture a verified checkpoint every N successful sync rounds
          (0, the default, disables checkpointing and rollback
          recovery). With checkpointing on, detections that would halt a
          DMR system — signature mismatch, vote no-consensus, blocked
          masking — instead roll all replicas back to the newest
          verified checkpoint and re-execute. *)
  checkpoint_depth : int;
      (** Bounded ring of retained checkpoints (>= 1). Depth >= 2 lets
          recovery escalate past a snapshot that itself froze in the
          fault (captured after the vote but before the corruption was
          detectable). Replay detection keeps no ring. *)
  checkpoint_mode : checkpoint_mode;
      (** Capture strategy; default [Incremental]. *)
  max_rollbacks : int;
      (** Total rollback budget per run (>= 1). A persistent fault
          exhausts it and the system fail-stops as before. *)
  exec_backend : exec_backend;
      (** Execution backend for every replica; default [Interp]. *)
  detection : detection;
      (** Detection strategy; default [Lockstep]. [Replay] requires
          [mode = Base], [engine = Sequential] (the checker domains are
          owned by the replay engine itself), [checkpoint_every = 0]
          (chunks cut their own images), and [checkpoint_mode =
          Incremental] (each cut is a [Delta] capture against the image
          memory was last synced to, which [Full] never keeps). *)
  replay_chunk_ticks : int;
      (** Replay chunk length in preemption ticks (>= 1, default 1):
          a chunk spans [replay_chunk_ticks * tick_interval] cycles. *)
  replay_queue_depth : int;
      (** Maximum chunks in flight, including the one being accumulated
          (>= 1, default 4). The primary harvests the oldest verdict —
          blocking on its checker if necessary — before opening a chunk
          that would exceed this, so memory stays bounded and detection
          lag never exceeds [replay_queue_depth] chunks. *)
  replay_checkers : int;
      (** Concurrent checker domains (>= 1, default 2). Fewer checkers
          than [replay_queue_depth] lets verification batch up behind
          the queue; more than the queue depth is never useful. *)
}

val default : t
(** Base mode, one replica, x86, [Sync_args], no VM, sane intervals. *)

val ckpt_quiesce_cycles : int
(** 2,000: the fixed quiesce stall of every checkpoint capture and
    restore, replay chunk cuts included, on top of the per-word copy
    cost. *)

val validate : ?net_ok:bool -> t -> (unit, string) result
(** Reject inconsistent configurations: [Base] with replicas <> 1, LC/CC
    with fewer than 2, masking with fewer than 3, VM on Arm (the paper's
    seL4 version lacks Arm hypervisor mode), CC masking on Arm (no spare
    page-table bit — Section IV-A), and replay chunks whose fixed costs
    fill them: [replay_chunk_ticks * tick_interval <=]
    {!ckpt_quiesce_cycles} [+ replay_chunk_ticks * (irq_cost +
    vm_exit_cost)] (the VM exit only under [vm]), where the primary
    would make no progress. [net_ok] is forwarded to
    {!parallel_ineligibility}. *)

val parallel_ineligibility : ?net_ok:bool -> t -> string option
(** Lint-style eligibility check for the parallel engine: [Some reason]
    when the configuration genuinely cannot run domain-parallel —
    [with_net] without a footprint proof (per-cycle cross-partition
    DMA/IRQ traffic), and replicated modes without [exception_barriers]
    (an uncontrolled kernel abort halts the whole system mid-round).
    [None] means [engine = Parallel] is valid. {!validate} rejects
    ineligible parallel configurations with this reason.

    [net_ok] (default [false]) is the per-workload verdict of the
    footprint analyzer ([Eligibility.check]): pass [true] only when the
    analysis proved the program touches device state exclusively through
    the kernel-serialised syscall paths — [System.create] does this
    automatically for networked parallel configurations. *)

val replicas_label : t -> string
(** "Base", "LC-D", "LC-T", "CC-D", "CC-T", … as the paper labels
    configurations. *)

val mode_to_string : mode -> string
val sync_level_to_string : sync_level -> string
val engine_to_string : engine -> string
val checkpoint_mode_to_string : checkpoint_mode -> string
val exec_backend_to_string : exec_backend -> string
