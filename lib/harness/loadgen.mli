(** Load-serving harness: drives the replicated KV server like a
    production service and measures it per request.

    Runs the system in fixed chunks of simulated cycles
    ({!Rcoe_core.System.run}), injecting requests and collecting
    responses at each chunk boundary, with request-level observability
    ({!Rcoe_obs.Reqtrace} wired into the NIC's packet observers), an
    outcome log for cross-engine determinism checks, a closed-loop
    window or an open-loop fixed-rate arrival mode paced by the device
    clock, and a fault-campaign mode that injects a signature flip
    mid-run and measures per-request detection latency and recovery
    stalls through the checkpoint/rollback machinery.

    The YCSB load phase (one PUT per record) always runs closed-loop;
    the configured pacing applies to the operation mix that follows. *)

open Rcoe_core
open Rcoe_workloads

type pacing =
  | Closed of { window : int }
      (** Keep up to [window] requests outstanding. *)
  | Open of { interval : int; max_queue : int }
      (** Fixed-rate arrivals every [interval] device-clock cycles;
          injection pauses while [max_queue] requests are outstanding
          (bounding memory, at the price of coordinated omission). *)

type fault_target =
  | Sig_word
      (** A published signature word (replica 1's under replication;
          the lone primary's when [nreplicas = 1], the replay-detection
          campaign) — inside the sphere of replication; lockstep voting
          or replay verification detects it and rollback repairs it. *)
  | Dma_frame
      (** A value word of a PUT request sitting in the RX ring — the
          paper's Table VII residual. No checkpoint covers the ring, so
          rollback cannot repair it; only ingress-checksum verification
          (drop + client retransmission) can. Without it the corruption
          is silent until a later GET trips the client's embedded CRC. *)

type fault_spec = {
  fault_after : int;
      (** Flip after this many completed run-phase operations. *)
  fault_bit : int;  (** Bit index (0..29) flipped in the word. *)
  fault_target : fault_target;
}
(** A transient flip applied at a chunk boundary once [fault_after]
    run-phase responses have drained (for [Dma_frame], at the first such
    boundary where the ring head is an unconsumed PUT). Trigger and
    effect are functions of simulated state only, so a fault run is
    still bit-for-bit identical across engines. *)

type outcome = { o_seq : int; o_op : int; o_status : int }

type result = {
  issued : int;
  completed : int;
  run_ops : int;  (** Run-phase (post-load) completions. *)
  elapsed_cycles : int;  (** Run-phase cycles. *)
  kops_per_sec : float;  (** Simulated-time run-phase throughput. *)
  outcome_log : outcome list;  (** Completion order, load phase included. *)
  outcome_digest : int;  (** CRC-32 over the flattened outcome log. *)
  end_sigs : (int * int * int) array;  (** Per-replica end-state signature. *)
  rt : Rcoe_obs.Reqtrace.t;
  counters : Ycsb.counters;
  stalled : bool;
  rollbacks : int;
  retransmits : int;
      (** Requests re-sent after outliving [retry_after] — a rollback
          can lose requests consumed from the RX ring after the restored
          checkpoint (the DMA hole); the client recovers them like a
          production client would, by retransmitting. Server ops are
          idempotent, so spurious retries are harmless. *)
  dup_responses : int;
      (** Responses dropped because their sequence id had already
          completed — a rollback replays TX doorbells issued after the
          restored checkpoint. *)
  ingress_checked : int;
      (** Frames verified against RX_CSUM (device-level: covers both the
          LC guest-MMIO and CC kernel-mediated check). *)
  ingress_dropped : int;
      (** Frames NACKed on checksum mismatch, awaiting retransmission. *)
  redelivered : int;
      (** Completions whose sequence id had been retransmitted at least
          once — the drop-and-redeliver lane finishing the job. *)
  outcome_sorted_digest : int;
      (** CRC-32 over the outcome log sorted by sequence id: an ingress
          drop delays one request's completion (reordering the log) but
          must not change the outcome set, so a recovered run's sorted
          digest equals the fault-free one even when [outcome_digest]
          differs. *)
  fault_fired : bool;
      (** Whether the configured fault actually landed ([Dma_frame]
          requires an unconsumed PUT at the ring head). *)
  sys : System.t;
}

val program_for :
  config:Config.t ->
  workload:Ycsb.workload ->
  records:int ->
  requests:int ->
  Rcoe_isa.Program.t
(** The KV server program {!run} executes, sized for the workload: the
    node arena holds [records] plus one insert per request only under
    D and E (the inserting mixes), which is what lets a 100k+ request
    A/B/C/F run fit the fixed per-replica memory partition. Exposed so
    callers can run the same program through {!Rcoe_core.Eligibility}
    before choosing the parallel engine. *)

val run :
  config:Config.t ->
  workload:Ycsb.workload ->
  records:int ->
  requests:int ->
  ?pacing:pacing ->
  ?gen_seed:int ->
  ?chunk:int ->
  ?stall_limit:int ->
  ?max_cycles:int ->
  ?retry_after:int ->
  ?fault:fault_spec ->
  ?keep:int ->
  unit ->
  result
(** Serve [records] load-phase PUTs plus [requests] operations of
    [workload] through the NIC. [config.with_net] is forced on and a
    trace ring is forced (capacity 65536) when the config has none —
    attribution needs the span events. [keep] bounds retained
    per-request records (see {!Rcoe_obs.Reqtrace.create}). [retry_after]
    (default 250k cycles) is the initial client retransmission timeout,
    doubled per retry. Other defaults: closed-loop window 8, [gen_seed]
    11, [chunk] 400, [stall_limit] 3M, [max_cycles] 600M. *)

val report_json : result -> engine:string -> Rcoe_obs.Json.t
(** The serve report: config echo, throughput, end-to-end and per-phase
    HDR latency summaries, stall attribution, net/trace counters, and —
    when faults were injected — detection-latency and recovery-stall
    histograms. *)
