(* The replication scheduler: system state, round lifecycle, voting,
   masking, checkpointing, and the one replica step, [advance]. The one
   run loop over simulated cycles, with the classic cycle, execution
   windows and the quiet-cycle skip, each a way of calling [advance],
   lives in [Window]; [Engine_par]
   runs its window jobs on worker domains, [Engine_replay] adds chunk
   cuts and owns the replay pipeline's set-up and cut state, and
   [System] is the public facade that dispatches on the configuration.
   This module has no interface — the engines need the internals — but
   nothing outside the library should depend on it. *)

open Rcoe_machine
open Rcoe_kernel
module Trace = Rcoe_obs.Trace
module Metrics = Rcoe_obs.Metrics

type halt_reason =
  | H_mismatch
  | H_no_consensus
  | H_timeout
  | H_kernel_exception of string
  | H_masking_blocked

let halt_reason_to_string = function
  | H_mismatch -> "signature mismatch (halt)"
  | H_no_consensus -> "vote: no consensus on faulty replica"
  | H_timeout -> "barrier timeout"
  | H_kernel_exception s -> "kernel exception: " ^ s
  | H_masking_blocked -> "faulty primary during I/O: cannot downgrade"

type event_kind =
  | E_user_fault of int
  | E_kernel_abort of int
  | E_mismatch
  | E_timeout
  | E_downgrade of int
  | E_reintegrate of int
  | E_rollback of int
  | E_ingress_drop of int

(* Typed handles into the metrics registry, the source of truth for
   every counter the engine keeps; callers read them back by name. *)
type metric_set = {
  m_ticks : Metrics.counter;
  m_rounds : Metrics.counter;
  m_votes : Metrics.counter;
  m_ipis : Metrics.counter;
  m_bp_fires : Metrics.counter;
  m_ft_rounds : Metrics.counter;
  m_rendezvous : Metrics.counter;
  m_vm_exits : Metrics.counter;
  m_single_steps : Metrics.counter;
  m_rep_steps : Metrics.counter;
  m_downgrades : Metrics.counter;
  m_reintegrations : Metrics.counter;
  m_rollbacks : Metrics.counter;
  m_ckpt_taken : Metrics.counter;
  m_ckpt_words_copied : Metrics.counter;
  m_ckpt_words_skipped : Metrics.counter;
  m_ingress_checked : Metrics.counter;
  m_ingress_dropped : Metrics.counter;
  m_catchup_dist : Metrics.histogram;
  m_catchup_cycles : Metrics.histogram;
  m_barrier_wait : Metrics.histogram;
  m_detect_latency : Metrics.histogram;
  m_ckpt_cost : Metrics.histogram;
  m_recover_latency : Metrics.histogram;
  m_replay_chunks : Metrics.counter;
  m_replay_verified : Metrics.counter;
  m_replay_mismatch : Metrics.counter;
  m_replay_lag : Metrics.histogram;
}

let make_metric_set reg =
  {
    m_ticks = Metrics.counter reg "kernel.ticks_delivered";
    m_rounds = Metrics.counter reg "sync.rounds";
    m_votes = Metrics.counter reg "sync.votes";
    m_ipis = Metrics.counter reg "sync.ipis";
    m_bp_fires = Metrics.counter reg "catchup.bp_fires";
    m_ft_rounds = Metrics.counter reg "sync.ft_rounds";
    m_rendezvous = Metrics.counter reg "sync.rendezvous";
    m_vm_exits = Metrics.counter reg "vm.exits";
    m_single_steps = Metrics.counter reg "catchup.single_steps";
    m_rep_steps = Metrics.counter reg "catchup.rep_steps";
    m_downgrades = Metrics.counter reg "mask.downgrades";
    m_reintegrations = Metrics.counter reg "mask.reintegrations";
    m_rollbacks = Metrics.counter reg "mask.rollbacks";
    m_ckpt_taken = Metrics.counter reg "ckpt.taken";
    m_ckpt_words_copied = Metrics.counter reg "ckpt.words_copied";
    m_ckpt_words_skipped = Metrics.counter reg "ckpt.words_skipped";
    m_ingress_checked = Metrics.counter reg "net.ingress_checked";
    m_ingress_dropped = Metrics.counter reg "net.ingress_dropped";
    m_catchup_dist = Metrics.histogram reg "catchup.distance_branches";
    m_catchup_cycles = Metrics.histogram reg "catchup.cycles";
    m_barrier_wait = Metrics.histogram reg "sync.barrier_wait_cycles";
    m_detect_latency = Metrics.histogram reg "detect.latency_cycles";
    m_ckpt_cost = Metrics.histogram reg "ckpt.cost_cycles";
    m_recover_latency = Metrics.histogram reg "recover.latency_cycles";
    m_replay_chunks = Metrics.counter reg "replay.chunks";
    m_replay_verified = Metrics.counter reg "replay.chunks_verified";
    m_replay_mismatch = Metrics.counter reg "replay.mismatches";
    m_replay_lag = Metrics.histogram reg "replay.lag_cycles";
  }

(* Pending events delivered at the end of an asynchronous round. *)
type ev = Tick | Dev_irq of int

type catchup = {
  leader_clock : Clock.t;
  mutable bp_set : bool;
  mutable overshoot : bool;
  mutable pmu_active : bool;
      (* Fast catch-up: running freely towards a PMU overflow target. *)
  mutable pmu_done : bool;
}

type rstate =
  | Rs_run
  | Rs_gather_wait
  | Rs_chase of int (* LC: target event count *)
  | Rs_catchup of catchup
  | Rs_vote_wait
  | Rs_rendezvous
  | Rs_halted
  | Rs_removed

(* Why a window job stopped before its cap, which [Window] decides the
   window's end on. Only [Pk_rendezvous] carries a deferred effect. *)
type park_kind =
  | Pk_rendezvous  (* reached a sync-point rendezvous *)
  | Pk_inert  (* all threads exited *)

(* Per-window job context ([Window], on either engine). [None] outside
   a window — every dispatch site below treats [None] as the classic
   per-cycle path. The job's private cycle counter [wv_now] doubles as
   the child trace's clock; shared-state effects (notable events,
   rendezvous entry, system halt) are deferred here and replayed in
   deterministic (cycle, replica) order when the window retires. *)
type wctx = {
  mutable wv_now : int;
  mutable wv_vm_exits : int;  (* deferred Metrics.incr on the shared set *)
  mutable wv_events : (int * event_kind) list;  (* newest first *)
  mutable wpark : (int * park_kind) option;
}

type replica = {
  rid : int;
  kern : Kernel.t;
  rtrace : Trace.t;
      (* Per-replica child of the system trace. In forwarding mode
         (always, outside execution windows) it is indistinguishable
         from the root; a window switches it to buffering so replicas
         can trace concurrently. *)
  mutable state : rstate;
  mutable finished : bool;
  mutable pending_ft : (int * int array) option;
  mutable joined : bool;
  mutable defer_publish : bool;
  mutable wctx : wctx option;
  (* Trace/metrics bookkeeping; [tr_phase] is only ever set while the
     trace is enabled, so the helpers below are free when it is not. *)
  mutable tr_phase : Trace.sync_phase option;
  mutable arrived_at : int;  (* cycle of final-barrier arrival, -1 = n/a *)
  mutable move_started : int;  (* cycle catch-up began, -1 = n/a *)
  mutable at_base : int;  (* the cycle [advance]'s [Blockc.run] starts after *)
  at : int -> unit;  (* its [~at], built once: [move_clock] to [at_base + k] *)
}

type phase =
  | Ph_idle
  | Ph_async of async_round
  | Ph_rdv of { mutable rdv_started : int }

and async_round = {
  events : ev list;
  mutable stage : [ `Gather | `Move ];
  mutable round_started : int;
}

(* ---------------------------------------------------------------------- *)
(* Replay-based detection (RepTFD) pipeline state                          *)
(* ---------------------------------------------------------------------- *)

(* A chunk cut: one image of everything a machine needs to restart
   execution at this exact point, bit for bit — the rollback source on
   the primary and the start state of every checker's shadow. The
   snapshot covers the replicated cut; the fields here additionally
   freeze the outside-SoR state a snapshot deliberately does not
   capture — device queues, the floating-point bus credit, the
   jitter RNG — which replay needs but lockstep rollback does not
   (re-execution after a lockstep rollback is *new* time; a replayed
   chunk re-lives the *same* time). Immutable once taken, so checker
   domains read it while the primary runs on. *)
type cut_state = {
  cs_snap : Checkpoint.snap;  (* taken before the cut's stall charge *)
  cs_stall : int;  (* that charge, which a shadow adds back *)
  cs_next_tick : int;
  cs_cycles : int;  (* core active-cycle / instret counters *)
  cs_instret : int;
  cs_jitter : Rcoe_util.Rng.t;  (* private copy of the core's jitter RNG *)
  cs_bus : Bus.state;
  cs_net : Netdev.snapshot option;
}

(* A closed chunk: start state, the host inputs absorbed while it ran,
   and the end state with its signature to compare a replay against.
   Immutable once built, so it can be handed to a checker domain without
   synchronisation. *)
type chunk = {
  ch_seq : int;
  ch_start : cut_state;
  ch_log : Inputlog.event list;
  ch_end : cut_state;
  ch_sig : int;  (* Fletcher digest over [ch_end]'s partition ++ shared *)
}

type t = {
  cfg : Config.t;
  mach : Machine.t;
  lay : Layout.t;
  lint : Rcoe_isa.Lint.report;
  elig : Eligibility.t option;
      (* Footprint-analyzer eligibility report; computed for every
         networked configuration (on both engines, so the obs metric
         sets stay identical), [None] otherwise. *)
  replicas : replica array;
  net : Netdev.t option;
  net_dpn : int;
  mmio_plan : (int * Page_table.pte) list; (* primary-role MMIO PTEs *)
  dma_plan : (int * Page_table.pte) list; (* primary-role DMA-window PTEs *)
  mutable prim : int;
  mutable phase : phase;
  mutable next_tick : int;
  mutable ticks : int;
  mutable halt : halt_reason option;
  mutable downgrade_log : (int * int * int) list;
  mutable event_log : (int * event_kind) list;
  mutable round_seq : int;
  mutable after_save : (rid:int -> tid:int -> ctx_addr:int -> unit) option;
  mutable pending_reintegrate : int option;
  mutable reintegration_log : (int * int) list;
  mutable event_log_len : int;
  (* Rollback recovery. The ring exists only when lockstep checkpointing
     is configured; replay detection rolls back to its chunk images and
     uses only the counters. *)
  ckpts : Checkpoint.t option;
  mutable synced : Checkpoint.snap option;
      (* The image memory was last synced to by [capture_image] or
         [restore_snap]: every page clean in the write tracking still
         holds its words, so the next image shares them and a restore
         skips them. Always [None] under [checkpoint_mode = Full]. *)
  mutable rounds_since_ckpt : int;
  mutable rollbacks_done : int;
  mutable retries_at_newest : int;
  mutable escalations : int;
  mutable rollback_log : (int * int) list; (* (detected_at, to_cycle) *)
  metrics : Metrics.t;
  ms : metric_set;
  trace : Trace.t;
  (* Replay-based detection pipeline; [Some] iff
     [cfg.detection = Replay]. Types are mutually recursive with [t]
     because checkers verify chunks against full shadow *systems*. *)
  mutable rp : replay option;
}

(* An in-flight chunk: queued for (or undergoing) verification.
   [if_domain]/[if_shadow] are only ever touched on the primary's
   domain; the checker domain sees just the immutable chunk and its
   private shadow system. *)
and inflight = {
  if_chunk : chunk;
  mutable if_domain : bool Domain.t option;
  mutable if_shadow : t option;
}

(* The primary-side pipeline: the accumulating chunk's start state, the
   bounded in-flight queue (oldest first), and a pool of reusable
   shadow systems ([Engine_replay] creates them lazily — creation runs
   program lint and layout, too costly per chunk). All fields are
   primary-domain-only; the only cross-domain traffic is the immutable
   chunk handed to [Domain.spawn] and the [bool] verdict joined back. *)
and replay = {
  rp_log : Inputlog.t;
  rp_span : int;  (* nominal chunk length, cycles *)
  mutable rp_seq : int;  (* sequence number of the accumulating chunk *)
  mutable rp_cut : cut_state;  (* its start *)
  mutable rp_next_cut : int;  (* tick count that triggers the next cut *)
  mutable rp_inflight : inflight list;  (* oldest first *)
  mutable rp_shadows : t list;  (* idle shadow systems *)
  mutable rp_shadows_made : int;
  mutable rp_hwm : int;  (* in-flight queue high-water mark *)
  mutable rp_idle_cycles : int;  (* checker idle, simulated cycles *)
}

(* The notable-events list is bounded: campaigns run for millions of
   cycles and the old unbounded list grew without limit. Truncation is
   amortised — the newest [event_log_cap] entries (the list prefix) are
   kept once the list doubles past the cap. *)
let event_log_cap = 2048

(* Engine-internal cycle costs not covered by the architecture profile. *)
let publish_cost = 60
let vote_cost = 140
let ft_word_cost = 2
let ft_op_cost = 180

let config t = t.cfg
let machine t = t.mach

let lint_report t = t.lint

let eligibility t = t.elig

let lint_warnings t =
  List.filter_map
    (fun f ->
      if f.Rcoe_isa.Lint.f_severity = Rcoe_isa.Lint.Warning then
        Some f.Rcoe_isa.Lint.f_message
      else None)
    t.lint.Rcoe_isa.Lint.findings
let layout t = t.lay
let netdev t = t.net
let kernel t rid = t.replicas.(rid).kern
let primary t = t.prim
let now t = t.mach.Machine.now

(* Refresh-on-read gauges over device and trace-ring state. Gauges are
   outside the Seq/Par value-identity contract (names only), which is
   what lets net.tx_pending_hwm depend on how often the host harness
   drains TX completions. *)
let metrics t =
  Metrics.set
    (Metrics.gauge_or t.metrics "trace.dropped_events")
    (float_of_int (Trace.dropped t.trace));
  (match t.net with
  | Some nd ->
      Metrics.set
        (Metrics.gauge_or t.metrics "net.rx_dropped")
        (float_of_int (Netdev.rx_dropped nd));
      Metrics.set
        (Metrics.gauge_or t.metrics "net.rx_ring_hwm")
        (float_of_int (Netdev.rx_ring_hwm nd));
      Metrics.set
        (Metrics.gauge_or t.metrics "net.tx_pending_hwm")
        (float_of_int (Netdev.tx_pending_hwm nd));
      Metrics.set
        (Metrics.gauge_or t.metrics "net.tx_sent")
        (float_of_int (Netdev.tx_sent nd));
      Metrics.set
        (Metrics.gauge_or t.metrics "net.rx_nacked")
        (float_of_int (Netdev.rx_nacked nd))
  | None -> ());
  (match t.rp with
  | Some rp ->
      Metrics.set
        (Metrics.gauge_or t.metrics "net.replay_queue_hwm")
        (float_of_int rp.rp_hwm);
      Metrics.set
        (Metrics.gauge_or t.metrics "replay.checker_idle_cycles")
        (float_of_int rp.rp_idle_cycles)
  | None -> ());
  t.metrics

(* The one reader of a counter by name. Every engine counter is
   registered at [create], so an unknown name is a caller bug. *)
let counter t name =
  match Metrics.find_counter t.metrics name with
  | Some c -> Metrics.count c
  | None -> invalid_arg ("System.counter: no counter named " ^ name)

let trace t = t.trace
let halted t = t.halt
let downgrades t = t.downgrade_log

let rollbacks t = t.rollback_log

(* Every frozen image counts: under replay the setup image, one per cut
   and one re-seed per rollback, i.e. one per chunk sequence number. *)
let checkpoints_taken t =
  match (t.ckpts, t.rp) with
  | Some ck, _ -> Checkpoint.taken ck
  | None, Some rp -> rp.rp_seq + 1
  | None, None -> 0
let events t = t.event_log
let tick_count t = t.ticks
let output t rid = Buffer.contents (Kernel.output t.replicas.(rid).kern)
let replica_done t rid = t.replicas.(rid).finished
let set_after_save_hook t h = t.after_save <- h

let sig_base t rid = t.lay.Layout.partitions.(rid).Layout.sig_base

let live t =
  Array.to_list t.replicas
  |> List.filter_map (fun r ->
         match r.state with Rs_removed -> None | _ -> Some r.rid)

let live_replicas t =
  Array.to_list t.replicas
  |> List.filter (fun r -> r.state <> Rs_removed)

(* The run loop's guard, read every iteration: a loop over the array,
   so it allocates nothing ([Array.for_all] allocates its closure). *)
let finished t =
  t.halt = None
  &&
  let rs = t.replicas and i = ref 0 in
  while
    !i < Array.length rs && (rs.(!i).state = Rs_removed || rs.(!i).finished)
  do
    incr i
  done;
  !i = Array.length rs

let log_event t k =
  t.event_log <- (now t, k) :: t.event_log;
  t.event_log_len <- t.event_log_len + 1;
  if t.event_log_len > 2 * event_log_cap then begin
    t.event_log <- List.filteri (fun i _ -> i < event_log_cap) t.event_log;
    t.event_log_len <- event_log_cap
  end

(* Detection latency (paper Fig. 3): cycles from the most recent fault
   injection to the moment the system reacts (halt or downgrade). The
   injection mark survives a disabled trace ring, so campaigns measure
   latency without paying for tracing. *)
let observe_detection t =
  match Trace.last_injection t.trace with
  | Some injected_at ->
      Metrics.observe t.ms.m_detect_latency
        (float_of_int (now t - injected_at));
      Trace.clear_last_injection t.trace
  | None -> ()

let halt_system t reason =
  if t.halt = None then begin
    t.halt <- Some reason;
    match reason with
    | H_timeout ->
        observe_detection t;
        log_event t E_timeout
    | H_mismatch | H_no_consensus | H_masking_blocked ->
        observe_detection t;
        log_event t E_mismatch
    | H_kernel_exception _ -> ()
  end

let mem t = t.mach.Machine.mem
let profile t = t.mach.Machine.profile
let shared t = t.lay.Layout.shared

let event_count t r = Signature.event_count (mem t) ~base:(sig_base t r.rid)

let charge r n = Core.add_stall (Kernel.core r.kern) n

let vm_charge t r =
  if t.cfg.Config.vm then begin
    charge r (profile t).Arch.vm_exit_cost;
    (match r.wctx with
    | Some w -> w.wv_vm_exits <- w.wv_vm_exits + 1
    | None -> Metrics.incr t.ms.m_vm_exits);
    Trace.vm_exit r.rtrace ~rid:r.rid
  end

(* Replica-context notable events: inside an execution window the
   shared log must not be touched (wrong clock, racy list under
   [Engine_par]) — defer to the job context and let the window's
   retirement replay them in deterministic order. *)
let rlog_event t r k =
  match r.wctx with
  | Some w -> w.wv_events <- (w.wv_now, k) :: w.wv_events
  | None -> log_event t k

(* Per-replica sync-phase spans. A new phase closes the previous one,
   so each replica carries at most one open span; [tr_phase] is only set
   while tracing, keeping both helpers free otherwise. *)
let tp_end _t r =
  match r.tr_phase with
  | Some ph ->
      Trace.phase_end r.rtrace ~rid:r.rid ph;
      r.tr_phase <- None
  | None -> ()

let tp_begin t r ph =
  if Trace.enabled t.trace then begin
    tp_end t r;
    Trace.phase_begin r.rtrace ~rid:r.rid ph;
    r.tr_phase <- Some ph
  end

(* Move [r]'s clock to cycle [c]: inside a window its job clock; else
   the machine clock, whose devices tick at each cycle it moves on to,
   so an event, act or device access at [c] sees them as per cycle (a
   tick between a step's events only refreshes their cycle cache). *)
let move_clock mach r c =
  match r.wctx with
  | Some w -> w.wv_now <- c
  | None ->
      if c > mach.Machine.now then begin
        mach.Machine.now <- c;
        Machine.tick_devices mach
      end

(* ---------------------------------------------------------------------- *)
(* Construction                                                            *)
(* ---------------------------------------------------------------------- *)

(* The device windows of a networked replica. The primary maps the real
   MMIO page and DMA region ([mmio_plan], [dma_plan]) and may write the
   shared input-replication buffer, whose user-mode copies it performs.
   Every other replica gets private frames in their place, still
   DMA-marked so that a promoted primary can find and re-point them
   (paper Section IV-A), and read-only access to the shared buffer. Runs
   at [create] and again when masking promotes a new primary. *)
let map_windows t k ~primary =
  if t.cfg.Config.with_net then begin
    List.iter
      (fun (vpn, pte) ->
        let pte =
          if primary then pte
          else { pte with Page_table.device = false; ppn = Kernel.alloc_frame_high k }
        in
        Kernel.map_page ~quiet:true k ~vpn pte)
      (t.mmio_plan @ t.dma_plan);
    let page = Layout.page_size in
    let sh = shared t in
    for i = 0 to (sh.Layout.inbuf_words / page) - 1 do
      Kernel.map_page ~quiet:true k
        ~vpn:((Layout.va_shared_in / page) + i)
        {
          Page_table.valid = true;
          writable = primary;
          dma = false;
          device = false;
          ppn = (sh.Layout.inbuf_base / page) + i;
        }
    done
  end

let check_program cfg (program : Rcoe_isa.Program.t) =
  let profile = Arch.profile_of cfg.Config.arch in
  if cfg.Config.mode <> Config.CC then Ok ()
  else
    match Rcoe_isa.Lint.exclusives program with
    | (addr, i) :: _ ->
        Error
          (Printf.sprintf
             "CC-RCoE forbids exclusives (use Sys_atomic): %s at %d"
             (Rcoe_isa.Instr.to_string i) addr)
    | []
      when profile.Arch.count_mode = Arch.Compiler_assisted
           && not program.Rcoe_isa.Program.branch_counted ->
        Error
          "compiler-assisted CC-RCoE requires a branch-counted program \
           (assemble with ~branch_count:true)"
    | [] -> Ok ()

(* The static analyzer runs on every program; its report is kept on the
   system for callers. Under [strict_lint] a rejected program — or a
   racy one under loose coupling, the silent-divergence case the paper
   warns about — refuses to start. *)
let lint_program cfg (program : Rcoe_isa.Program.t) =
  let lint =
    Rcoe_isa.Lint.analyze
      ~exit_syscalls:[ Syscall.sys_exit ]
      ~spawn_syscall:Syscall.sys_spawn program
  in
  let first_error () =
    match
      List.find_opt
        (fun f -> f.Rcoe_isa.Lint.f_severity = Rcoe_isa.Lint.Error)
        lint.Rcoe_isa.Lint.findings
    with
    | Some f -> f.Rcoe_isa.Lint.f_message
    | None -> "rejected"
  in
  match lint.Rcoe_isa.Lint.verdict with
  | Rcoe_isa.Lint.Rejected when cfg.Config.strict_lint ->
      Error
        (Printf.sprintf "%s rejected by the static analyzer: %s"
           program.Rcoe_isa.Program.name (first_error ()))
  | Rcoe_isa.Lint.CC_required
    when cfg.Config.strict_lint && cfg.Config.mode = Config.LC ->
      Error
        (Printf.sprintf
           "%s has unprotected shared-memory races and requires \
            closely-coupled execution; LC replicas may silently diverge"
           program.Rcoe_isa.Program.name)
  | _ -> Ok lint

(* The system [create_result] admits. *)
let build cfg program ~elig ~lint =
  let profile = Arch.profile_of cfg.Config.arch in
  let lay =
    Layout.compute ~nreplicas:cfg.Config.nreplicas
      ~user_words:cfg.Config.user_words
  in
  let trace =
    match cfg.Config.trace with
    | Some tc -> Trace.create tc
    | None -> Trace.disabled ()
  in
  let mach =
    Machine.create ~trace ~profile ~mem_words:lay.Layout.total_words
      ~ncores:cfg.Config.nreplicas ~seed:cfg.Config.seed ()
  in
  let net, net_dpn =
    if cfg.Config.with_net then begin
      let nd =
        Netdev.create ~mem:mach.Machine.mem ~dma_base:lay.Layout.dma_base
          ~dma_words:lay.Layout.dma_words
      in
      let dpn = Machine.add_device mach (Netdev.device nd) in
      (Some nd, dpn)
    end
    else (None, -1)
  in
  let metrics = Metrics.create () in
  let ms = make_metric_set metrics in
  (* Analyzer observability. Counter values are part of the Seq/Par
     bit-for-bit contract, so only deterministic quantities (verdicts,
     access and diagnostic counts, summary rounds) become counters; the
     host-side wall clock is a gauge, whose name — not value — the
     identity test compares. *)
  (match elig with
  | None -> ()
  | Some e ->
      Metrics.set (Metrics.gauge metrics "absint_host_us") e.Eligibility.host_us;
      Metrics.incr
        ~by:(if Eligibility.eligible e then 1 else 0)
        (Metrics.counter metrics "absint_eligible");
      Metrics.incr
        ~by:(List.length (Eligibility.diags e))
        (Metrics.counter metrics "absint_diags");
      Metrics.incr ~by:e.Eligibility.n_accesses
        (Metrics.counter metrics "absint_accesses");
      Metrics.incr ~by:e.Eligibility.rounds
        (Metrics.counter metrics "absint_rounds"));
  let tref = ref None in
  let callbacks =
    {
      Kernel.cb_info =
        (fun rid key ->
          match !tref with
          | None -> 0
          | Some t -> (
              match key with
              | 0 -> rid
              | 1 -> t.cfg.Config.nreplicas
              | 2 -> t.prim
              | 3 -> if t.cfg.Config.mode = Config.CC then 1 else 0
              | 4 -> Kernel.current_tid t.replicas.(rid).kern
              | 5 -> t.ticks
              | 6 -> if t.cfg.Config.ingress_check then 1 else 0
              | _ -> 0));
      Kernel.cb_kernel_update =
        (fun rid words ->
          match !tref with
          | None -> ()
          | Some t ->
              if t.cfg.Config.mode <> Config.Base then
                Signature.add_words (mem t) ~base:(sig_base t rid) words);
    }
  in
  let replicas =
    Array.init cfg.Config.nreplicas (fun rid ->
        (* Each replica gets a child of the system trace; the kernel and
           core emit through it too, so everything a replica records can
           be buffered per-domain by the parallel engine. *)
        let rtrace = Trace.child trace in
        let backend =
          match cfg.Config.exec_backend with
          | Config.Interp -> Rcoe_machine.Blockc.Interp
          | Config.Blocks -> Rcoe_machine.Blockc.Blocks
        in
        let kern =
          Kernel.create ~trace:rtrace ~backend ~machine:mach ~rid
            ~core_id:rid ~layout:lay ~program ~callbacks ()
        in
        let rec r =
          {
            rid;
            kern;
            rtrace;
            state = Rs_run;
            finished = false;
            pending_ft = None;
            joined = false;
            defer_publish = false;
            wctx = None;
            tr_phase = None;
            arrived_at = -1;
            move_started = -1;
            at_base = 0;
            at = (fun k -> move_clock mach r (r.at_base + k));
          }
        in
        r)
  in
  (* Device-window mapping plans (primary role). *)
  let page = Layout.page_size in
  let mmio_plan =
    if cfg.Config.with_net then
      [ ( Layout.va_mmio / page,
          {
            Page_table.valid = true;
            writable = true;
            dma = false;
            device = true;
            ppn = net_dpn;
          } ) ]
    else []
  in
  let dma_plan =
    if cfg.Config.with_net then
      List.init (lay.Layout.dma_words / page) (fun i ->
          ( (Layout.va_dma / page) + i,
            {
              Page_table.valid = true;
              writable = true;
              dma = true;
              device = false;
              ppn = (lay.Layout.dma_base / page) + i;
            } ))
    else []
  in
  let t =
    {
      cfg;
      mach;
      lay;
      lint;
      elig;
      replicas;
      net;
      net_dpn;
      mmio_plan;
      dma_plan;
      prim = 0;
      phase = Ph_idle;
      next_tick = cfg.Config.tick_interval;
      ticks = 0;
      halt = None;
      downgrade_log = [];
      event_log = [];
      round_seq = 0;
      after_save = None;
      pending_reintegrate = None;
      reintegration_log = [];
      event_log_len = 0;
      ckpts =
        (if cfg.Config.checkpoint_every > 0 then
           Some (Checkpoint.create ~depth:cfg.Config.checkpoint_depth)
         else None);
      synced = None;
      rounds_since_ckpt = 0;
      rollbacks_done = 0;
      retries_at_newest = 0;
      escalations = 0;
      rollback_log = [];
      metrics;
      ms;
      trace;
      rp = None;
    }
  in
  tref := Some t;
  (* Per-replica address spaces and role-dependent windows. *)
  Array.iter
    (fun r ->
      let k = r.kern in
      Kernel.setup_address_space k;
      map_windows t k ~primary:(r.rid = t.prim);
      ignore (Kernel.spawn k ~entry:program.Rcoe_isa.Program.entry ~arg:0);
      Kernel.start k;
      (* Role mappings differ per replica; baseline the signature after
         setup so replicas start equal. *)
      Signature.reset (mem t) ~base:(sig_base t r.rid))
    replicas;
  Machine.route_irqs_to mach t.prim;
  t

(* Every refusal of [create], as a reason: an invalid configuration, a
   program the configuration cannot run, or one [strict_lint] refuses. *)
let create_result ~config:cfg ~program =
  (* Networked configurations get the footprint analyzer's per-workload
     verdict up front — on both engines, so the metrics registered below
     (and hence the bit-for-bit Seq/Par identity over metric names and
     counter values) do not depend on the engine. The verdict feeds
     [Config.validate ~net_ok]: a proof that all device-ring accesses
     stay inside the kernel-serialised syscall paths lifts the blanket
     with_net rejection for the parallel engine. *)
  let elig =
    if cfg.Config.with_net then Some (Eligibility.check ~config:cfg ~program)
    else None
  in
  let net_ok =
    match elig with Some e -> Eligibility.eligible e | None -> false
  in
  match Config.validate ~net_ok cfg with
  | Error msg ->
      (* When the one failing check is net eligibility, attach the
         analyzer's instruction-address provenance. *)
      Error
        (match elig with
        | Some e
          when (not (Eligibility.eligible e))
               && Config.validate ~net_ok:true cfg = Ok () ->
            msg ^ "; analyzer verdict: " ^ Eligibility.describe e
        | _ -> msg)
  | Ok () -> (
      match check_program cfg program with
      | Error msg -> Error msg
      | Ok () -> (
          match lint_program cfg program with
          | Error msg -> Error msg
          | Ok lint -> Ok (build cfg program ~elig ~lint)))

(* ---------------------------------------------------------------------- *)
(* FT operations                                                           *)
(* ---------------------------------------------------------------------- *)

(* Transfer size of an FT operation, for cost accounting. *)
let ft_words num args =
  if num = Syscall.sys_ft_mem_access then max 0 args.(3)
  else if num = Syscall.sys_ft_add_trace || num = Syscall.sys_ft_mem_rep then
    max 0 args.(1)
  else 0

(* A kernel data abort on replica [r]: physical address [a] lies outside
   memory. Caught by the exception-handler barrier it halts just this
   replica, detectably (fail-stop: the others time out). Unreplicated it
   halts the system. Replicated without barriers it is the uncontrolled
   kernel exception that takes the whole system down mid-round. Neither
   system halt runs inside a window: unreplicated runs open none, and
   replicated windows need exception barriers
   ({!Config.parallel_ineligibility}). *)
let kernel_abort t r a =
  rlog_event t r (E_kernel_abort r.rid);
  if t.cfg.Config.exception_barriers || t.cfg.Config.mode = Config.Base then begin
    r.state <- Rs_halted;
    (Kernel.core r.kern).Core.halted <- true
  end;
  if not t.cfg.Config.exception_barriers then
    halt_system t (H_kernel_exception (Printf.sprintf "phys abort @%d" a))

(* An FT operation's copy into or out of [r]'s user memory. A bad user
   mapping fails the copy softly (the guest gets an error code); a
   corrupted page table that translates outside physical memory is a
   kernel data abort on [r]. Returns whether the copy completed. *)
let user_copy t r copy =
  try
    copy ();
    true
  with
  | Kernel.User_mem_error _ -> false
  | Mem.Abort a ->
      kernel_abort t r a;
      false

(* FT_Mem_Rep ingress verification, when configured: recompute the
   checksum of the [len]-word frame at physical [src] and compare it
   against the NIC's enqueue-time ground truth (RX_CSUM). The replicas
   [rs] read the same physical buffer, so the digest is computed once
   and each is charged for the pass. A mismatch is counted, traced and
   logged as a drop here; the caller NACKs the frame ([nack_frame]),
   under replication only after the vote. *)
let verify_ingress t rs ~src ~len =
  if not (t.cfg.Config.ingress_check && t.net <> None) then `Unchecked
  else begin
    Metrics.incr t.ms.m_ingress_checked;
    List.iter (fun r -> charge r (ft_word_cost * len)) rs;
    let data = Mem.read_block (mem t) src len in
    let got = Rcoe_checksum.Fletcher.frame data in
    let expect = Machine.dev_read t.mach t.net_dpn Netdev.reg_rx_csum in
    if got = expect then `Verified got
    else begin
      let id = if Array.length data >= 2 then data.(1) else -1 in
      Metrics.incr t.ms.m_ingress_dropped;
      Trace.ingress_drop t.trace ~id ~expect ~got;
      observe_detection t;
      log_event t (E_ingress_drop id);
      `Dropped (expect, got)
    end
  end

let nack_frame t = Machine.dev_write t.mach t.net_dpn Netdev.reg_rx_nack 1

(* Stage an FT operation: fold its data into every replica's signature and
   return the commit action (externally-visible side effects), which runs
   only after a successful vote — so corrupted output is caught before it
   reaches the device. *)
let ft_stage t num args =
  let sh = shared t in
  let live = live_replicas t in
  let add_sig r ws =
    Array.iter (fun w -> Signature.add_word (mem t) ~base:(sig_base t r.rid) w) ws
  in
  let read_block r ~va ~len =
    try Some (Kernel.read_user_block r.kern ~va ~len)
    with Kernel.User_mem_error _ | Mem.Abort _ -> None
  in
  let set_result r v =
    (Kernel.core r.kern).Core.regs.(0) <- v
  in
  (* Deliver [data] into every replica's buffer at [va]. *)
  let copy_in ~va data () =
    List.iter
      (fun r ->
        ignore (user_copy t r (fun () -> Kernel.write_user_block r.kern ~va data));
        set_result r 0)
      live
  in
  List.iter
    (fun r -> charge r (ft_op_cost + (ft_word_cost * ft_words num args)))
    live;
  if num = Syscall.sys_ft_add_trace then begin
    let va = args.(0) and len = max 0 (min args.(1) 4096) in
    List.iter
      (fun r ->
        match read_block r ~va ~len with
        | Some block -> if t.cfg.Config.trace_output then add_sig r block
        | None -> add_sig r [| -1 |])
      live;
    fun () -> List.iter (fun r -> set_result r 0) live
  end
  else if num = Syscall.sys_ft_mem_access then begin
    let access = args.(0) and mmio_va = args.(1) and va = args.(2) in
    let len = max 0 (min args.(3) Netdev.slot_words) in
    let prim_k = t.replicas.(t.prim).kern in
    match Kernel.translate_mmio prim_k ~va:mmio_va with
    | None -> fun () -> List.iter (fun r -> set_result r (-1)) live
    | Some (dpn, off) ->
        if access = 0 then begin
          (* Read: the primary reads the device once; the values pass
             through the shared scratch area to every replica and every
             signature. *)
          let values =
            Array.init len (fun i -> Machine.dev_read t.mach dpn (off + i))
          in
          Array.iteri
            (fun i v ->
              if i < 32 then Mem.write (mem t) (sh.Layout.scratch_base + i) v)
            values;
          List.iter (fun r -> add_sig r values) live;
          copy_in ~va values
        end
        else begin
          (* Write: fold every replica's outgoing data; the device write
             (from the then-primary's copy) happens only after the vote. *)
          let blocks =
            List.map (fun r -> (r.rid, read_block r ~va ~len)) live
          in
          List.iter2
            (fun r (_, b) ->
              match b with Some ws -> add_sig r ws | None -> add_sig r [| -1 |])
            live blocks;
          fun () ->
            (match List.assoc_opt t.prim blocks with
            | Some (Some ws) ->
                Array.iteri (fun i v -> Machine.dev_write t.mach dpn (off + i) v) ws
            | Some None | None -> ());
            List.iter (fun r -> set_result r 0) live
        end
  end
  else if num = Syscall.sys_ft_mem_rep then begin
    let va = args.(0)
    and len = max 0 (min args.(1) sh.Layout.inbuf_words)
    and dma_off = max 0 args.(2) in
    let src = t.lay.Layout.dma_base + min dma_off (t.lay.Layout.dma_words - len) in
    match verify_ingress t live ~src ~len with
    | `Dropped (expect, got) ->
        (* The corruption happened outside the sphere of replication, so
           every replica sees the same bad bytes: fold an identical drop
           marker (not the data) so the vote passes — rollback cannot
           repair a buffer no checkpoint covers. Recovery is to NACK the
           frame back to the device and let the client's retransmission
           bridge re-deliver it. *)
        List.iter (fun r -> add_sig r [| -2; expect; got |]) live;
        fun () ->
          nack_frame t;
          List.iter (fun r -> set_result r 1) live
    | (`Verified _ | `Unchecked) as verdict ->
        (* The primary's kernel copies the DMA buffer into the shared
           region; every replica's kernel then copies it inward and
           folds it — plus, on the checked path, the verified digest, so
           the vote cross-checks the replicas' views of the ingress
           data. *)
        Mem.blit (mem t) ~src ~dst:sh.Layout.inbuf_base ~len;
        let data = Mem.read_block (mem t) sh.Layout.inbuf_base len in
        List.iter (fun r -> add_sig r data) live;
        (match verdict with
        | `Verified digest -> List.iter (fun r -> add_sig r [| digest |]) live
        | `Unchecked -> ());
        copy_in ~va data
  end
  else begin
    (* input_wait: pure rendezvous. *)
    fun () -> List.iter (fun r -> set_result r 0) live
  end

(* Base-mode (unreplicated) FT syscalls act directly. *)
let ft_base t r num args =
  let k = r.kern in
  let set v = (Kernel.core k).Core.regs.(0) <- v in
  let copy f = set (if user_copy t r f then 0 else -1) in
  charge r (ft_op_cost + (ft_word_cost * ft_words num args));
  if num = Syscall.sys_ft_add_trace || num = Syscall.sys_input_wait then set 0
  else if num = Syscall.sys_ft_mem_access then begin
    let access = args.(0) and mmio_va = args.(1) and va = args.(2) in
    let len = max 0 (min args.(3) Netdev.slot_words) in
    match Kernel.translate_mmio k ~va:mmio_va with
    | None -> set (-1)
    | Some (dpn, off) ->
        copy (fun () ->
            if access = 0 then
              for i = 0 to len - 1 do
                Kernel.write_user k ~va:(va + i) (Machine.dev_read t.mach dpn (off + i))
              done
            else
              for i = 0 to len - 1 do
                Machine.dev_write t.mach dpn (off + i) (Kernel.read_user k ~va:(va + i))
              done)
  end
  else if num = Syscall.sys_ft_mem_rep then begin
    let va = args.(0)
    and len = max 0 (min args.(1) t.lay.Layout.dma_words)
    and dma_off = max 0 args.(2) in
    let src = t.lay.Layout.dma_base + min dma_off (t.lay.Layout.dma_words - len) in
    match verify_ingress t [ r ] ~src ~len with
    | `Dropped _ ->
        nack_frame t;
        set 1
    | `Verified _ | `Unchecked ->
        copy (fun () ->
            for i = 0 to len - 1 do
              Kernel.write_user k ~va:(va + i) (Mem.read (mem t) (src + i))
            done)
  end
  else set (-1)

(* ---------------------------------------------------------------------- *)
(* Downgrade (error masking, Section IV)                                   *)
(* ---------------------------------------------------------------------- *)

let promote_new_primary t new_prim =
  let p = profile t in
  let k = t.replicas.(new_prim).kern in
  (* Scan the page table for DMA-marked pages (the spare-bit trick) and
     re-point them at the real DMA region and device window. *)
  let marked = Kernel.dma_pages_mapped k in
  map_windows t k ~primary:true;
  t.prim <- new_prim;
  Machine.route_irqs_to t.mach new_prim;
  let cc_factor = if t.cfg.Config.mode = Config.CC then 5 else 1 in
  (Layout.va_pages * p.Arch.pte_scan_cost * cc_factor)
  + (List.length marked * 2000 * cc_factor)
  + 30_000

let downgrade t faulty =
  let r = t.replicas.(faulty) in
  r.state <- Rs_removed;
  r.pending_ft <- None;
  (Kernel.core r.kern).Core.halted <- true;
  let cost =
    if faulty = t.prim then
      let new_prim =
        List.fold_left min max_int (live t)
      in
      promote_new_primary t new_prim
    else (profile t).Arch.removal_cost
  in
  List.iter (fun s -> charge s cost) (live_replicas t);
  tp_end t r;
  Metrics.incr t.ms.m_downgrades;
  Trace.downgrade t.trace ~rid:faulty ~cost;
  observe_detection t;
  t.downgrade_log <- (now t, faulty, cost) :: t.downgrade_log;
  log_event t (E_downgrade faulty)

(* Barrier timeout: halt, or — with the timeout-masking extension (the
   paper's "shut down the straggler's core") — downgrade a single
   straggling replica and let the round continue with the survivors.
   Returns true if the system may continue. *)
let handle_timeout t ~stragglers =
  if
    t.cfg.Config.timeout_masking
    && List.length (live t) >= 3
    && List.length stragglers = 1
  then begin
    log_event t E_timeout;
    downgrade t (List.hd stragglers).rid;
    true
  end
  else begin
    halt_system t H_timeout;
    false
  end

(* Publish every live replica's signature into the shared region. *)
let publish_signatures t =
  List.iter
    (fun r ->
      charge r publish_cost;
      Vote.publish_signature (mem t) (shared t) ~rid:r.rid
        (Signature.read (mem t) ~base:(sig_base t r.rid)))
    (live_replicas t)

(* ---------------------------------------------------------------------- *)
(* Verified checkpoints and rollback recovery                              *)
(* ---------------------------------------------------------------------- *)

(* Snapshot copy stall, charged to every live replica for both capture
   and restore. Cheaper per word than re-integration's partition blit
   (p_words / 8): checkpoints copy far more state far more often, so
   they model a wide DMA/bulk-copy engine, plus a fixed quiesce cost. *)
let ckpt_copy_cost words = (words / 32) + Config.ckpt_quiesce_cycles

(* Capture every live replica against the image memory was last synced
   to, so the host copies only the pages written since; [kind] sets the
   cost basis. Under incremental checkpointing memory is then synced to
   the new image. Under [Full] nothing is synced, so every capture
   copies every non-zero page and every restore writes every page: the
   tracking-free reference. *)
let capture_image t ~kind =
  let snap =
    Checkpoint.capture ?base:t.synced (mem t) t.lay ~kind ~cycle:(now t)
      ~round_seq:t.round_seq ~ticks:t.ticks ~prim:t.prim
      ~replicas:
        (List.map (fun r -> (r.rid, r.kern, r.finished)) (live_replicas t))
  in
  if t.cfg.Config.checkpoint_mode = Config.Incremental then
    t.synced <- Some snap;
  snap

(* Charge the copy stall of a capture that copied [words] to every live
   replica and account it; returns the stall. *)
let charge_checkpoint t ~words ~skipped =
  let cost = ckpt_copy_cost words in
  List.iter (fun r -> charge r cost) (live_replicas t);
  Metrics.incr t.ms.m_ckpt_taken;
  Metrics.incr ~by:words t.ms.m_ckpt_words_copied;
  Metrics.incr ~by:skipped t.ms.m_ckpt_words_skipped;
  Metrics.observe t.ms.m_ckpt_cost (float_of_int cost);
  Trace.checkpoint t.trace ~words ~skipped ~cost;
  cost

(* Capture every live replica into the ring. The first capture has no
   image to be taken against, so it is always a full copy; after that
   the configured mode decides. *)
let take_checkpoint t ck =
  let kind =
    if t.cfg.Config.checkpoint_mode = Config.Full || Checkpoint.count ck = 0
    then Checkpoint.Full
    else Checkpoint.Delta
  in
  let snap = capture_image t ~kind in
  Checkpoint.push ck snap;
  (* A fresh verified snapshot is forward progress: reset escalation. *)
  t.retries_at_newest <- 0;
  t.escalations <- 0;
  ignore
    (charge_checkpoint t ~words:(Checkpoint.words snap)
       ~skipped:(Checkpoint.skipped_words snap))

(* Runs at the end of every successfully voted round (the only verified
   quiescent points). *)
let maybe_checkpoint t =
  match t.ckpts with
  | None -> ()
  | Some ck ->
      if t.halt = None && not (finished t) then begin
        t.rounds_since_ckpt <- t.rounds_since_ckpt + 1;
        if t.rounds_since_ckpt >= t.cfg.Config.checkpoint_every then begin
          t.rounds_since_ckpt <- 0;
          take_checkpoint t ck
        end
      end

(* Rewind the replicated cut to [snap]: memory, kernels, replica roles
   and the engine's logical clocks. This is the one restore path, for
   lockstep rollbacks, replay rollbacks and the replay checkers'
   shadows. *)
let restore_snap t (snap : Checkpoint.snap) =
  Array.iter (fun r -> tp_end t r) t.replicas;
  (* Only where memory differs from the synced image; memory then
     equals [snap], the image the next capture is taken against. *)
  Checkpoint.restore_image ?synced:t.synced (mem t) t.lay snap;
  if t.cfg.Config.checkpoint_mode = Config.Incremental then begin
    t.synced <- Some snap;
    Mem.clear_dirty (mem t)
  end;
  List.iter
    (fun (img : Checkpoint.replica_image) ->
      let r = t.replicas.(img.Checkpoint.i_rid) in
      Kernel.restore r.kern img.Checkpoint.i_kernel;
      r.finished <- img.Checkpoint.i_finished;
      r.pending_ft <- None;
      r.joined <- false;
      r.defer_publish <- false;
      r.arrived_at <- -1;
      r.move_started <- -1;
      (* A replica downgraded *after* the capture comes back: its page
         table and signature live in the restored partition, and the
         restored [s_prim] undoes any promotion since. *)
      r.state <- Rs_run;
      Machine.clear_ipi t.mach ~core_id:r.rid)
    snap.Checkpoint.s_replicas;
  t.prim <- snap.Checkpoint.s_prim;
  Machine.route_irqs_to t.mach t.prim;
  t.round_seq <- snap.Checkpoint.s_round_seq;
  t.ticks <- snap.Checkpoint.s_ticks;
  t.phase <- Ph_idle

(* Roll the whole system back to [snap] and account it. Wall-clock
   cycles never rewind — re-execution is *new* time, which is exactly
   the recovery latency the campaign measures — and the restore stall
   is charged to the survivors. *)
let roll_back t (snap : Checkpoint.snap) =
  t.rollbacks_done <- t.rollbacks_done + 1;
  t.retries_at_newest <- t.retries_at_newest + 1;
  observe_detection t;
  let detected_at = now t in
  restore_snap t snap;
  t.next_tick <- now t + t.cfg.Config.tick_interval;
  (* The simulated restore writes the whole cut back, however many
     pages the host skipped, so the stall scales with its size. *)
  let cost = ckpt_copy_cost (Checkpoint.total_words snap) in
  List.iter (fun r -> charge r cost) (live_replicas t);
  Metrics.incr t.ms.m_rollbacks;
  (* Recovery latency: the re-execution distance plus the restore
     stall. *)
  Metrics.observe t.ms.m_recover_latency
    (float_of_int (detected_at - snap.Checkpoint.s_cycle + cost));
  Trace.rollback t.trace ~to_cycle:snap.Checkpoint.s_cycle ~cost;
  t.rollback_log <- (detected_at, snap.Checkpoint.s_cycle) :: t.rollback_log;
  log_event t (E_rollback snap.Checkpoint.s_cycle)

(* Recovery policy: bounded retries with exponential escalation. The
   newest snapshot gets 2^n retries (n = escalations so far) before it
   is discarded as suspect — a fault that struck after the vote but
   before the capture is frozen *inside* it — and recovery falls back
   to the next older one. An exhausted budget or an empty ring means
   the fault is persistent: fail-stop as before. Returns true when the
   system was rolled back and may re-execute. *)
let try_rollback t =
  match t.ckpts with
  | None -> false
  | Some ck ->
      if t.rollbacks_done >= t.cfg.Config.max_rollbacks then false
      else begin
        if t.retries_at_newest >= 1 lsl t.escalations then begin
          Checkpoint.drop_newest ck;
          t.escalations <- t.escalations + 1;
          t.retries_at_newest <- 0
        end;
        match Checkpoint.newest ck with
        | None -> false
        | Some snap ->
            roll_back t snap;
            true
      end

(* Handle a detected signature mismatch. Returns true if the system may
   continue (successful downgrade), false if it halted — or if it rolled
   back, in which case the round being voted on no longer exists and the
   caller must not complete it. *)
let handle_mismatch t ~io_in_flight =
  log_event t E_mismatch;
  let lv = live t in
  if t.cfg.Config.masking && List.length lv >= 3 then
    match Vote.run (mem t) (shared t) ~live:lv with
    | Vote.No_consensus ->
        if try_rollback t then false
        else begin
          halt_system t H_no_consensus;
          false
        end
    | Vote.Faulty f ->
        if f = t.prim && io_in_flight then begin
          if try_rollback t then false
          else begin
            halt_system t H_masking_blocked;
            false
          end
        end
        else begin
          downgrade t f;
          if Vote.signatures_agree (mem t) (shared t) ~live:(live t) then true
          else if try_rollback t then false
          else begin
            halt_system t H_mismatch;
            false
          end
        end
  else if try_rollback t then false
  else begin
    halt_system t H_mismatch;
    false
  end

(* Vote on signatures; on success run [k]; on mismatch try masking and, if
   it succeeds, still run [k] for the survivors. *)
let vote_signatures t ~io_in_flight k =
  Metrics.incr t.ms.m_votes;
  List.iter (fun r -> charge r vote_cost) (live_replicas t);
  publish_signatures t;
  let ok = Vote.signatures_agree (mem t) (shared t) ~live:(live t) in
  if Trace.enabled t.trace then
    List.iter
      (fun r ->
        let count, c0, c1 = Signature.read (mem t) ~base:(sig_base t r.rid) in
        Trace.vote t.trace ~rid:r.rid ~count ~c0 ~c1 ~agree:ok)
      (live_replicas t);
  if ok then k () else if handle_mismatch t ~io_in_flight then k ()

(* ---------------------------------------------------------------------- *)
(* Re-integration (paper Section IV-C, implemented extension)              *)
(* ---------------------------------------------------------------------- *)

let request_reintegration t ~rid =
  if rid < 0 || rid >= Array.length t.replicas then Error "no such replica"
  else if t.replicas.(rid).state <> Rs_removed then
    Error "replica is not removed"
  else if t.halt <> None then Error "system halted"
  else begin
    t.pending_reintegrate <- Some rid;
    Ok ()
  end

let reintegrations t = t.reintegration_log

(* Runs at the end of an asynchronous round, when every live replica is
   parked at the same logical point: copy a healthy non-primary replica's
   entire partition into the returning replica's partition, rebase its
   page-table frame numbers, and adopt the source's kernel bookkeeping
   and core state. *)
let perform_reintegration t rid =
  let dst = t.replicas.(rid) in
  let src =
    match List.filter (fun r -> r.rid <> t.prim) (live_replicas t) with
    | s :: _ -> s
    | [] -> t.replicas.(t.prim)
  in
  let sp = t.lay.Layout.partitions.(src.rid)
  and dp = t.lay.Layout.partitions.(rid) in
  Mem.blit (mem t) ~src:sp.Layout.p_base ~dst:dp.Layout.p_base
    ~len:(min sp.Layout.p_words dp.Layout.p_words);
  let delta_pages = (dp.Layout.p_base - sp.Layout.p_base) / Layout.page_size in
  let table = { Page_table.base = dp.Layout.pt_base; npages = Layout.va_pages } in
  let src_lo = sp.Layout.p_base / Layout.page_size in
  let src_hi = (sp.Layout.p_base + sp.Layout.p_words) / Layout.page_size in
  for vpn = 0 to Layout.va_pages - 1 do
    let pte = Page_table.get (mem t) table ~vpn in
    if
      pte.Page_table.valid
      && (not pte.Page_table.device)
      && pte.Page_table.ppn >= src_lo
      && pte.Page_table.ppn < src_hi
    then
      Page_table.set (mem t) table ~vpn
        { pte with Page_table.ppn = pte.Page_table.ppn + delta_pages }
  done;
  Kernel.adopt_runtime_from dst.kern ~src:src.kern;
  dst.finished <- src.finished;
  dst.pending_ft <- None;
  dst.joined <- false;
  dst.defer_publish <- false;
  dst.state <- Rs_run;
  (* The copy stalls everyone (a DMA-rate partition copy). *)
  let cost = dp.Layout.p_words / 8 in
  List.iter (fun r -> charge r cost) (live_replicas t);
  Metrics.incr t.ms.m_reintegrations;
  Trace.reintegrate t.trace ~rid ~cost;
  t.reintegration_log <- (now t, rid) :: t.reintegration_log;
  log_event t (E_reintegrate rid)

let maybe_reintegrate t =
  match t.pending_reintegrate with
  | Some rid when t.halt = None && t.replicas.(rid).state = Rs_removed ->
      t.pending_reintegrate <- None;
      perform_reintegration t rid
  | Some _ when t.halt <> None -> t.pending_reintegrate <- None
  | Some _ ->
      (* Not applicable this round (e.g. the replica was revived by a
         rollback before the request could run): keep it pending until
         the replica is removed again or the system halts. *)
      ()
  | None -> ()

(* ---------------------------------------------------------------------- *)
(* Round lifecycle                                                         *)
(* ---------------------------------------------------------------------- *)

(* All replicas leave a barrier together: the round completes when the
   slowest replica's pending kernel work (e.g. the last arriver's final
   debug exception) is done, so every survivor resumes with the *same*
   residual stall. Without equalisation the last arriver would restart
   behind the pack and permanently seed the next round's drift; zeroing
   instead would erase legitimately charged kernel time. *)
let equalize_stalls t =
  let mx =
    List.fold_left
      (fun acc r -> max acc (Kernel.core r.kern).Core.stall)
      0 (live_replicas t)
  in
  List.iter
    (fun r ->
      match r.state with
      | Rs_removed | Rs_halted -> ()
      | _ -> (Kernel.core r.kern).Core.stall <- mx)
    (live_replicas t)

let resume_replica t r =
  r.joined <- false;
  r.defer_publish <- false;
  tp_end t r;
  if r.arrived_at >= 0 then begin
    Metrics.observe t.ms.m_barrier_wait (float_of_int (now t - r.arrived_at));
    r.arrived_at <- -1
  end;
  match r.state with
  | Rs_removed | Rs_halted -> ()
  | _ ->
      charge r 60;
      vm_charge t r;
      r.state <- Rs_run

let deliver_events t evs =
  List.iter
    (fun ev ->
      match ev with
      | Tick ->
          t.ticks <- t.ticks + 1;
          Metrics.incr t.ms.m_ticks;
          let hook = t.after_save in
          List.iter
            (fun r ->
              if not r.finished then
                Kernel.preempt
                  ?after_save:
                    (Option.map
                       (fun f ~tid ~ctx_addr -> f ~rid:r.rid ~tid ~ctx_addr)
                       hook)
                  r.kern)
            (live_replicas t)
      | Dev_irq dpn ->
          List.iter
            (fun r ->
              if not r.finished then ignore (Kernel.wake_irq_waiters r.kern ~dpn))
            (live_replicas t))
    evs

let end_round t =
  Trace.round_end t.trace ~seq:t.round_seq;
  t.phase <- Ph_idle;
  maybe_checkpoint t

(* Completion of a round: every live replica is parked at the same
   logical point. Stage the pending FT operation, if any, vote, commit
   the operation after a successful vote, and resume. An asynchronous
   round ([events = Some _]) also delivers its tick or device IRQ and
   runs a pending re-integration. Replicas that reach the round with
   different pending operations have diverged; when masking removes the
   faulty one, the survivors go through the round again. *)
let rec complete_round t ~events =
  let fts = List.map (fun r -> r.pending_ft) (live_replicas t) in
  let resume () =
    List.iter (fun r -> r.pending_ft <- None) (live_replicas t);
    Option.iter
      (fun evs ->
        deliver_events t evs;
        maybe_reintegrate t)
      events;
    equalize_stalls t;
    List.iter (resume_replica t) (live_replicas t);
    end_round t
  in
  match fts with
  | f0 :: rest when not (List.for_all (fun f -> f = f0) rest) ->
      publish_signatures t;
      if handle_mismatch t ~io_in_flight:false then complete_round t ~events
  | Some (num, args) :: _ ->
      Metrics.incr t.ms.m_ft_rounds;
      let commit = ft_stage t num args in
      (* Only reads touch the device *before* the vote (the primary has
         already distributed device data); writes commit after a
         successful vote, so a faulty primary can be removed safely. *)
      let io =
        (num = Syscall.sys_ft_mem_access && args.(0) = 0)
        || num = Syscall.sys_ft_mem_rep
      in
      vote_signatures t ~io_in_flight:io (fun () ->
          commit ();
          resume ())
  | _ ->
      (* A tick/IRQ round or a Sync_vote rendezvous: vote only. *)
      vote_signatures t ~io_in_flight:false resume

(* ---------------------------------------------------------------------- *)
(* Joining and catch-up                                                    *)
(* ---------------------------------------------------------------------- *)

let publish_clock t r clk =
  let enc = Clock.encode clk in
  let base = (shared t).Layout.time_base + (4 * r.rid) in
  Array.iteri (fun i w -> Mem.write (mem t) (base + i) w) enc;
  Mem.write (mem t) ((shared t).Layout.bar_base + r.rid) t.round_seq;
  charge r publish_cost

let read_clock t rid =
  let base = (shared t).Layout.time_base + (4 * rid) in
  Clock.decode (Array.init 4 (fun i -> Mem.read (mem t) (base + i)))

let arrived_bar t rid =
  Mem.read (mem t) ((shared t).Layout.bar_base + rid) = t.round_seq

(* Join the gather stage at a kernel entry. *)
let join_gather t r =
  if not r.joined then begin
    r.joined <- true;
    Machine.clear_ipi t.mach ~core_id:r.rid;
    let count = event_count t r in
    let clk =
      (* LC logical time is the event count alone: a replica at a kernel
         entry after [count] events is at position "kernel boundary",
         whatever user instruction it was interrupted at. Only CC
         publishes the precise user position. *)
      if
        t.cfg.Config.mode = Config.CC
        && Kernel.current_tid r.kern >= 0
        && not r.finished
      then Clock.capture (profile t) ~count (Kernel.core r.kern)
      else Clock.in_kernel ~count
    in
    publish_clock t r clk;
    (* Publishing and parking at the barrier are hypervisor crossings
       when the stack runs virtualised. *)
    vm_charge t r;
    tp_begin t r Trace.Gather_wait;
    r.state <- Rs_gather_wait
  end

(* Mark a replica arrived at the final barrier. *)
let arrive t r =
  (Kernel.core r.kern).Core.bp <- None;
  Mem.write (mem t) ((shared t).Layout.bar_base + r.rid) t.round_seq;
  vm_charge t r;
  if r.move_started >= 0 then begin
    Metrics.observe t.ms.m_catchup_cycles
      (float_of_int (now t - r.move_started));
    r.move_started <- -1
  end;
  r.arrived_at <- now t;
  tp_begin t r Trace.Vote_wait;
  r.state <- Rs_vote_wait

(* After the gather completes: elect the leader and set every replica
   moving (or arrived). *)
let start_move t round =
  let lv = live_replicas t in
  let joined = List.filter (fun r -> r.joined) lv in
  let clocks = List.map (fun r -> (r, read_clock t r.rid)) joined in
  match clocks with
  | [] -> ()
  | (_, c0) :: _ ->
      let leader_clock =
        List.fold_left
          (fun acc (_, c) -> if Clock.compare c acc > 0 then c else acc)
          c0 clocks
      in
      t.round_seq <- t.round_seq + 1;
      (* Fresh sequence for the arrival barrier. *)
      List.iter
        (fun (r, c) ->
          if Clock.equal_position c leader_clock then arrive t r
          else begin
            r.move_started <- now t;
            (* Catch-up distance (the drift the round must absorb):
               completed-branch deficit between two precise user
               positions, event-count deficit otherwise. *)
            let dist =
              match (c.Clock.pos, leader_clock.Clock.pos) with
              | ( Clock.At_user { branches_adj = a; _ },
                  Clock.At_user { branches_adj = la; _ } ) ->
                  la - a
              | _ -> leader_clock.Clock.count - c.Clock.count
            in
            Metrics.observe t.ms.m_catchup_dist (float_of_int (max 0 dist));
            match t.cfg.Config.mode with
            | Config.LC | Config.Base ->
                tp_begin t r Trace.Chase;
                r.state <- Rs_chase leader_clock.Clock.count
            | Config.CC ->
                tp_begin t r Trace.Catchup;
                r.state <-
                  Rs_catchup
                    {
                      leader_clock;
                      bp_set = false;
                      overshoot = false;
                      pmu_active = false;
                      pmu_done = false;
                    }
          end)
        clocks;
      round.stage <- `Move

(* ---------------------------------------------------------------------- *)
(* Replica stepping                                                        *)
(* ---------------------------------------------------------------------- *)

let enter_rendezvous t r =
  (match t.phase with
  | Ph_idle ->
      t.round_seq <- t.round_seq + 1;
      (* Via the replica's child trace: when this entry is replayed at a
         window barrier the event must land *after* the replica's
         buffered in-window events, which only the child can order. In
         forwarding mode this is identical to emitting on the root. *)
      Trace.round_begin r.rtrace ~seq:t.round_seq;
      t.phase <- Ph_rdv { rdv_started = now t }
  | Ph_rdv _ -> ()
  | Ph_async _ -> () (* cannot happen: async joins are taken first *));
  r.arrived_at <- now t;
  tp_begin t r Trace.Rendezvous;
  r.state <- Rs_rendezvous;
  Mem.write (mem t) ((shared t).Layout.bar_base + r.rid) t.round_seq

(* Post-syscall bookkeeping shared by every mode: join/arrive/rendezvous. *)
let post_syscall t r num =
  match t.phase with
  | Ph_async round when round.stage = `Gather -> join_gather t r
  | Ph_async _ -> (
      (* Move stage: arrival checks. *)
      match r.state with
      | Rs_chase target when event_count t r >= target -> arrive t r
      | Rs_catchup cu
        when cu.leader_clock.Clock.pos = Clock.In_kernel
             && event_count t r >= cu.leader_clock.Clock.count
             && Kernel.current_tid r.kern < 0 ->
          arrive t r
      | _ -> ())
  | Ph_idle | Ph_rdv _ -> (
      (* Inside an execution window the rendezvous entry mutates shared
         round state; park the job and let the window's retirement
         replay the entry at this exact cycle. *)
      let rendezvous () =
        match r.wctx with
        | Some w -> w.wpark <- Some (w.wv_now, Pk_rendezvous)
        | None -> enter_rendezvous t r
      in
      match r.pending_ft with
      | Some _ -> rendezvous ()
      | None ->
          if
            t.cfg.Config.sync_level = Config.Sync_vote
            && t.cfg.Config.mode <> Config.Base
            && num <> Syscall.sys_exit
          then rendezvous ())

let on_syscall t r num =
  Signature.bump_event (mem t) ~base:(sig_base t r.rid);
  vm_charge t r;
  if
    t.cfg.Config.mode <> Config.Base
    && (t.cfg.Config.sync_level = Config.Sync_args
       || t.cfg.Config.sync_level = Config.Sync_vote)
  then begin
    let regs = (Kernel.core r.kern).Core.regs in
    let nargs = Syscall.arg_count num in
    let words = Array.init (1 + nargs) (fun i -> if i = 0 then num else regs.(i - 1)) in
    Signature.add_words (mem t) ~base:(sig_base t r.rid) words
  end;
  (match Kernel.handle_syscall r.kern num with
  | Kernel.Sr_local -> ()
  | Kernel.Sr_ft { num = fnum; args } ->
      if t.cfg.Config.mode = Config.Base then ft_base t r fnum args
      else r.pending_ft <- Some (fnum, args));
  if Kernel.all_exited r.kern then r.finished <- true;
  post_syscall t r num

let on_fault t r fault =
  vm_charge t r;
  (match Kernel.handle_fault r.kern fault with
  | Kernel.Fd_user_fault | Kernel.Fd_user_exception ->
      rlog_event t r (E_user_fault r.rid)
  | Kernel.Fd_kernel_abort a -> kernel_abort t r a);
  if Kernel.all_exited r.kern then r.finished <- true;
  if r.state <> Rs_halted then
    match t.phase with
    | Ph_async round when round.stage = `Gather -> join_gather t r
    | _ -> ()

(* The kernel's reaction to a core event that ended a user step. *)
let on_event t r = function
  | Core.Ev_syscall n -> on_syscall t r n
  | Core.Ev_fault f -> on_fault t r f
  | Core.Ev_halt ->
      Kernel.exit_current r.kern;
      if Kernel.all_exited r.kern then r.finished <- true
  | Core.Ev_breakpoint ->
      (* Stale breakpoint outside a catch-up: clear and continue. *)
      (Kernel.core r.kern).Core.bp <- None

let on_ipi t r =
  Machine.clear_ipi t.mach ~core_id:r.rid;
  Metrics.incr t.ms.m_ipis;
  charge r (profile t).Arch.irq_cost;
  vm_charge t r;
  match t.phase with
  | Ph_async { stage = `Gather; _ } ->
      if
        t.cfg.Config.mode = Config.CC
        && Kernel.current_tid r.kern >= 0
        && Core.rep_in_progress (Kernel.core r.kern) (Kernel.env r.kern)
      then begin
        (* Stopped at a rep-string: step past it before publishing a
           precise position (paper Section III-D). *)
        Metrics.incr t.ms.m_rep_steps;
        Trace.rep_step r.rtrace ~rid:r.rid;
        charge r (profile t).Arch.rep_walk_cost;
        r.defer_publish <- true
      end
      else join_gather t r
  | _ -> ()

(* A core event during a CC catch-up. A syscall means the replica made
   more syscalls than the leader: it has diverged past it. *)
let on_catchup_event t r cu ev =
  on_event t r ev;
  match ev with Core.Ev_syscall _ -> cu.overshoot <- true | _ -> ()

(* A core event of a catch-up whose breakpoint is armed at the leader's
   user position. A fire at the leader's position arrives; any other
   fire steps past the breakpointed address with the resume flag: the
   bp-fire/single-step pair of Section III-D. *)
let on_armed_event t r cu = function
  | Core.Ev_breakpoint ->
      let core = Kernel.core r.kern and p = profile t in
      Metrics.incr t.ms.m_bp_fires;
      charge r p.Arch.debug_exception_cost;
      vm_charge t r;
      let here = Clock.capture p ~count:(event_count t r) core in
      if Clock.equal_position here cu.leader_clock then arrive t r
      else begin
        if Clock.compare here cu.leader_clock > 0 then cu.overshoot <- true;
        Metrics.incr t.ms.m_single_steps;
        Trace.single_step r.rtrace ~rid:r.rid;
        core.Core.bp_suppress <- true
      end
  | ev -> on_catchup_event t r cu ev

(* What replica [r] does on the cycles after [s], as long as no round
   event intervenes: the one decision [advance] dispatches on, by which
   the quiet-cycle skip ([Window]) also classifies every replica. An act
   takes one cycle and changes replica or round state; the last three
   can take many cycles at once, and [D_user] and [D_still] hold for at
   most [ipi_bound] cycles. Constant, so deciding allocates nothing. *)
type decision =
  | D_ipi  (* take the visible IPI *)
  | D_join  (* an idle or finished replica joins the gather stage *)
  | D_arrive  (* a chase reached its target event count *)
  | D_arm  (* arm the catch-up breakpoint at the leader's position *)
  | D_pmu  (* a fast catch-up's PMU phase: program, step or give it up *)
  | D_publish  (* step on towards a publication deferred past a rep-string *)
  | D_halt  (* step a halted core under an armed breakpoint: an event *)
  | D_user  (* run user code, or burn stall, up to the next core event *)
  | D_spin  (* spin at a barrier, which only decays the stall *)
  | D_still  (* nothing *)

(* The cycles after [s] before an IPI becomes visible to [r]: only a
   live running replica answers one, before anything else it does. *)
let ipi_bound t r ~s =
  match r.state with
  | Rs_run when not (Kernel.core r.kern).Core.halted ->
      let p = t.mach.Machine.ipi_pending.(r.rid) in
      if p = max_int then max_int else p - s - 1
  | _ -> max_int

(* A replica about to run user code. A halted core (crashed, hung)
   freezes, so the others' barrier times out; an idle one waits. *)
let decide_user r =
  if (Kernel.core r.kern).Core.halted || Kernel.current_tid r.kern < 0 then
    D_still
  else if r.defer_publish then D_publish
  else D_user

let decide t r ~s =
  match r.state with
  | Rs_removed | Rs_halted -> D_still
  | Rs_gather_wait | Rs_vote_wait | Rs_rendezvous -> D_spin
  | Rs_chase target ->
      if event_count t r >= target then D_arrive else decide_user r
  | Rs_catchup cu -> (
      let leader = cu.leader_clock in
      if event_count t r < leader.Clock.count then decide_user r
      else
        match leader.Clock.pos with
        | Clock.In_kernel ->
            (* Arrival for kernel-parked leaders happens in
               [post_syscall]; a replica still running here with the
               full count has diverged and will time the round out. *)
            decide_user r
        | Clock.At_user _ ->
            (* Paper Section VI: a fast catch-up covers most of the
               deficit with a PMU overflow, then arms the breakpoint. *)
            if t.cfg.Config.fast_catchup && (not cu.pmu_done) && not cu.bp_set
            then D_pmu
            else if not cu.bp_set then D_arm
            else if (Kernel.core r.kern).Core.halted then D_halt
            else D_user)
  | Rs_run -> (
      (* A hung core answers neither IPIs nor its own work. *)
      if (Kernel.core r.kern).Core.halted then D_still
      else if ipi_bound t r ~s <= 0 then D_ipi
      else if r.finished || Kernel.current_tid r.kern < 0 then
        match t.phase with
        | Ph_async { stage = `Gather; _ } -> D_join
        | _ -> D_still
      else decide_user r)

(* The act [f] at cycle [c], which does not step the core. *)
let act t r c f =
  move_clock t.mach r c;
  Bus.tick (Machine.bus_lane t.mach ~core_id:r.rid);
  f t r;
  c

(* Inside a window, a replica that has finished parks at cycle [c],
   where the per-cycle loop would notice it and the window's end may be
   decided; a halted one does not. Whether it parked. *)
let park_finished r c =
  match r.wctx with
  | Some ({ wpark = None; _ } as w)
    when r.finished
         && not ((Kernel.core r.kern).Core.halted || r.state = Rs_halted) ->
      w.wpark <- Some (c, Pk_inert);
      true
  | _ -> false

(* The core event that ended [r]'s step: an armed catch-up's goes to
   [on_armed_event], any other to [on_event]. *)
let dispatch t r ev =
  match r.state with
  | Rs_catchup cu when cu.bp_set -> on_armed_event t r cu ev
  | _ -> on_event t r ev

(* One [Kernel.step] at cycle [c]. A replica whose publication waits for
   its rep-string publishes once the string is done (Section III-D). *)
let step1 t r c =
  move_clock t.mach r c;
  (match Kernel.step r.kern with
  | Core.Event ev -> dispatch t r ev
  | Core.Ran when r.defer_publish -> (
      let core = Kernel.core r.kern in
      match t.phase with
      | Ph_async { stage = `Gather; _ }
        when not (Core.rep_in_progress core (Kernel.env r.kern)) ->
          r.defer_publish <- false;
          join_gather t r
      | _ -> ())
  | Core.Ran -> ());
  c

(* Branches the core completed: a compiler-assisted count's [cntinc]
   still in flight is left out. *)
let completed_branches t core =
  let raw = Core.branch_count core (profile t) in
  if core.Core.last_was_cntinc then raw - 1 else raw

(* The cycle [c] of a fast catch-up's PMU phase: program the counter
   (or give up on a small deficit), then step up to the overflow. *)
let pmu_step t r c =
  (match r.state with
  | Rs_catchup
      ({ leader_clock = { Clock.pos = Clock.At_user { branches_adj; _ }; _ };
         _;
       } as cu) ->
      let p = profile t and core = Kernel.core r.kern in
      move_clock t.mach r c;
      if not cu.pmu_active then begin
        Bus.tick (Machine.bus_lane t.mach ~core_id:r.rid);
        if branches_adj - completed_branches t core > 32 then begin
          cu.pmu_active <- true;
          tp_begin t r Trace.Pmu_catchup;
          charge r p.Arch.breakpoint_set_cost (* programming the counter *)
        end
        else cu.pmu_done <- true
      end
      else begin
        (match Kernel.step r.kern with
        | Core.Ran -> ()
        | Core.Event ev -> on_catchup_event t r cu ev);
        if completed_branches t core >= branches_adj - 8 then begin
          cu.pmu_active <- false;
          cu.pmu_done <- true;
          (* The overflow interrupt that ends the fast phase. *)
          charge r p.Arch.irq_cost;
          vm_charge t r;
          tp_begin t r Trace.Catchup
        end
      end
  | _ -> ());
  c

(* Arm the catch-up breakpoint at the leader's user position; a replica
   already exactly there arrives. *)
let arm_breakpoint t r =
  match r.state with
  | Rs_catchup
      ({ leader_clock = { Clock.pos = Clock.At_user { ip; _ }; _ } as leader;
         _;
       } as cu) ->
      let p = profile t and core = Kernel.core r.kern in
      cu.bp_set <- true;
      charge r p.Arch.breakpoint_set_cost;
      core.Core.bp <- Some ip;
      let here = Clock.capture p ~count:(event_count t r) core in
      if Clock.equal_position here leader then arrive t r
  | _ -> ()

(* Move replica [r] — core, kernel, replica state and its own bus lane,
   which ticks once per cycle — from cycle [from] through at most
   [upto], as the per-cycle loop would, and return the cycle reached,
   early after [r]'s first core event or act. An act, and a user step on
   [Interp], take one cycle; on [Blocks] user code, a spin or a still
   replica take the span at once, so the caller bounds [upto] short of
   any IPI, round event or device activity. Inside a window shared
   effects are deferred and a finished replica parks; outside, the
   devices must have ticked at the machine clock's cycle. *)
let advance t r ~from ~upto =
  if park_finished r from || upto <= from then from
  else
    let c = from + 1 and k = upto - from in
    let core = Kernel.core r.kern in
    match (decide t r ~s:from, Kernel.block_cache r.kern) with
    | D_user, Some bc -> (
        let before = core.Core.cycles in
        r.at_base <- from;
        let ev = Blockc.run bc ~fuel:k ~at:r.at in
        let c = from + core.Core.cycles - before in
        move_clock t.mach r c;
        (match ev with Some ev -> dispatch t r ev | None -> ());
        c)
    | (D_user | D_publish | D_halt), _ -> step1 t r c
    | ((D_spin | D_still) as d), _ ->
        (* A spin's charged kernel work (publishing, voting, VM
           crossings) overlaps the wait instead of deferring resume, so
           the residual stall decays by one per cycle. *)
        if d = D_spin then core.Core.stall <- Int.max 0 (core.Core.stall - k);
        Bus.advance (Machine.bus_lane t.mach ~core_id:r.rid) ~cycles:k;
        move_clock t.mach r upto;
        upto
    | D_ipi, _ -> act t r c on_ipi
    | D_join, _ -> act t r c join_gather
    | D_arrive, _ -> act t r c arrive
    | D_arm, _ -> act t r c arm_breakpoint
    | D_pmu, _ -> pmu_step t r c

(* ---------------------------------------------------------------------- *)
(* Phase advancement and round initiation                                  *)
(* ---------------------------------------------------------------------- *)

let initiate_round t evs =
  Metrics.incr t.ms.m_rounds;
  t.round_seq <- t.round_seq + 1;
  Trace.round_begin t.trace ~seq:t.round_seq;
  List.iter
    (fun r ->
      r.joined <- false;
      tp_begin t r Trace.Ipi_wait;
      Machine.send_ipi t.mach ~target:r.rid)
    (live_replicas t);
  t.phase <- Ph_async { events = evs; stage = `Gather; round_started = now t }

let base_tick t =
  let r = t.replicas.(0) in
  if not r.finished then begin
    charge r (profile t).Arch.irq_cost;
    vm_charge t r;
    t.ticks <- t.ticks + 1;
    Metrics.incr t.ms.m_ticks;
    let hook = t.after_save in
    Kernel.preempt
      ?after_save:
        (Option.map (fun f ~tid ~ctx_addr -> f ~rid:0 ~tid ~ctx_addr) hook)
      r.kern
  end

(* The round can be decided now, barring a timeout: every live replica
   has joined the gather, arrived at the final barrier, or reached the
   rendezvous. [advance_phase] completes the round's stage on it, and
   the quiet-cycle skip refuses to run past it: [start_move] can arrive
   every replica at once, and the round then completes on the next
   cycle. *)
let round_ready t =
  match t.phase with
  | Ph_idle -> false
  | Ph_async _ | Ph_rdv _ ->
      (* A loop, so that the skip's refusal allocates nothing. *)
      let rs = t.replicas and i = ref 0 in
      while
        !i < Array.length rs
        &&
        let r = rs.(!i) in
        match (r.state, t.phase) with
        | Rs_removed, _ -> true
        | _, Ph_async { stage = `Gather; _ } -> r.joined
        | Rs_vote_wait, Ph_async { stage = `Move; _ } | Rs_rendezvous, Ph_rdv _
          ->
            arrived_bar t r.rid
        | _ -> false
      do
        incr i
      done;
      !i = Array.length rs

let advance_phase t =
  match t.phase with
  | Ph_idle ->
      if t.cfg.Config.mode = Config.Base then begin
        if now t >= t.next_tick then begin
          t.next_tick <- now t + t.cfg.Config.tick_interval;
          base_tick t
        end;
        match Machine.pending_irq t.mach ~core_id:0 with
        | Some dpn ->
            Machine.ack_irq t.mach dpn;
            let r = t.replicas.(0) in
            charge r (profile t).Arch.irq_cost;
            vm_charge t r;
            ignore (Kernel.wake_irq_waiters r.kern ~dpn)
        | None -> ()
      end
      else begin
        let evs = ref [] in
        if now t >= t.next_tick then begin
          (* Absolute cadence: a round that overruns the tick interval
             does not push the next tick out, otherwise replica drift —
             and hence catch-up cost — grows with round duration. Keep a
             quarter-interval minimum spacing so an overloaded system
             still makes forward progress. *)
          t.next_tick <-
            max
              (t.next_tick + t.cfg.Config.tick_interval)
              (now t + (t.cfg.Config.tick_interval / 4));
          if not (finished t) then evs := Tick :: !evs
        end;
        (match Machine.pending_irq t.mach ~core_id:t.prim with
        | Some dpn ->
            Machine.ack_irq t.mach dpn;
            evs := Dev_irq dpn :: !evs
        | None -> ());
        if !evs <> [] then initiate_round t !evs
      end
  | Ph_async round -> (
      if now t - round.round_started > t.cfg.Config.barrier_timeout then begin
        let stragglers =
          List.filter
            (fun r ->
              match round.stage with
              | `Gather -> not r.joined
              | `Move -> r.state <> Rs_vote_wait)
            (live_replicas t)
        in
        if handle_timeout t ~stragglers then
          round.round_started <- now t (* fresh budget for the survivors *)
      end
      else if round_ready t then
        match round.stage with
        | `Gather -> start_move t round
        | `Move -> complete_round t ~events:(Some round.events))
  | Ph_rdv rdv ->
      if now t - rdv.rdv_started > t.cfg.Config.barrier_timeout then begin
        let stragglers =
          List.filter (fun r -> r.state <> Rs_rendezvous) (live_replicas t)
        in
        if handle_timeout t ~stragglers then rdv.rdv_started <- now t
      end
      else if round_ready t then begin
        Metrics.incr t.ms.m_rendezvous;
        complete_round t ~events:None
      end
      (* A replica that exited (or hung) while the others rendezvous is a
         straggler; without timeout masking it is caught by the barrier
         timeout above, not by a vote — the paper's hanging-replica case. *)

let replica_state_name t rid =
  let r = t.replicas.(rid) in
  let state =
    match r.state with
    | Rs_run -> if r.finished then "run(finished)" else "run"
    | Rs_gather_wait -> "gather"
    | Rs_chase n -> Printf.sprintf "chase(%d)" n
    | Rs_catchup _ -> "catchup"
    | Rs_vote_wait -> "vote-wait"
    | Rs_rendezvous -> "rendezvous"
    | Rs_halted -> "halted"
    | Rs_removed -> "removed"
  in
  let phase =
    match t.phase with
    | Ph_idle -> "idle"
    | Ph_async { stage = `Gather; _ } -> "async-gather"
    | Ph_async { stage = `Move; _ } -> "async-move"
    | Ph_rdv _ -> "rdv"
  in
  Printf.sprintf "%s/%s count=%d" state phase
    (Signature.event_count (mem t) ~base:(sig_base t rid))
