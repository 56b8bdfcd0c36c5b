(* The replay-based detection engine (RepTFD-style; see
   [Config.detection]).

   The primary runs *unreplicated*, at near-Base speed, through
   [Window.run] (quiet-cycle skips included), whose [before] hook cuts
   the chunks. Every [replay_chunk_ticks] preemption ticks it cuts a
   chunk: one image of the cut ([cut_state]: a snapshot plus the
   outside-SoR state), its capture stall priced as a delta checkpoint,
   and the input log drained since the previous cut.
   Closed chunks enter a bounded in-flight queue; checker domains
   concurrently restore each chunk's start image into a private shadow
   system, re-execute it — re-injecting the logged host inputs at the
   recorded cycles — and compare the end-of-chunk Fletcher signature
   over the replicated memory.

   A chunk's host cost outside the re-execution grows with the pages
   the chunk wrote, not with the partition. A cut copies only the pages
   dirtied since the previous image and shares the rest with it
   ([Sched.capture_image]); its signature composes the pages' Fletcher block
   sums, of which only the new pages' are computed. A checker's restore
   writes only the pages its shadow dirtied or that differ between the
   image it restored last and this chunk's start ([Sched.restore_snap]).
   Its verdict sums only the shadow's dirty pages, in place, and takes
   the start image's sums for the rest ([region_sig]). What remains per
   chunk is O(pages) pointer and flag work, plus one [Domain.spawn].

   Detection is therefore asynchronous: a fault inside chunk [j] is
   discovered when [j]'s verdict is processed, at most
   [replay_queue_depth] chunks after it executed — the paper's
   sync-overhead/detection-latency trade-off, bought with one extra
   core per checker instead of per-sync-point rendezvous. A full
   in-flight queue stalls the primary (host-side [Domain.join]; the
   simulated clock is untouched, so backpressure never perturbs the
   machine's determinism).

   On a mismatch the primary rolls back to the chunk's start image
   through the same restore path as a lockstep rollback and the
   checkers' shadows ([Sched.restore_snap]), within the [max_rollbacks]
   budget; on top of the memory/kernel rewind the engine also restores
   the outside-SoR state the image froze (device queues, bus credit,
   jitter RNG), so re-execution re-lives the same timeline minus the
   (un-reinjected) fault. The pipeline then resets: in-flight chunks
   are discarded, a fresh image of the rolled-back state starts the
   next chunk, and the input log restarts — inputs absorbed after the
   rollback point are lost, exactly like frames a rebooting NIC drops,
   and the serving harness's client retransmission recovers them. *)

open Rcoe_machine
open Rcoe_kernel
open Sched
module Rng = Rcoe_util.Rng

(* Fletcher digest over the replicated memory a replayed chunk must
   reproduce: the primary partition plus the shared region of image
   [snap], composed from its pages' sums; with [mem], of the words [mem]
   holds there, [snap] being the image memory was last synced to (only
   its dirty pages are summed). The DMA window is deliberately excluded
   — the device writes it outside the sphere of replication, so the
   paper's residual DMA vulnerability is preserved under replay
   detection exactly as under lockstep. *)
let digest ?mem (lay : Layout.t) (snap : Checkpoint.snap) =
  match snap.Checkpoint.s_replicas with
  | [ img ] ->
      let f = Rcoe_checksum.Fletcher.create () in
      Checkpoint.add_sums ?mem ~base:lay.Layout.partitions.(0).Layout.p_base f
        img.Checkpoint.i_partition;
      Checkpoint.add_sums ?mem ~base:lay.Layout.shared.Layout.s_base f
        snap.Checkpoint.s_shared;
      Rcoe_checksum.Fletcher.digest f
  | _ -> invalid_arg "Engine_replay: an image holds one partition"

(* The live memory's digest, to compare a replay against its cut's. *)
let region_sig t =
  match t.synced with
  | Some snap -> digest ~mem:(mem t) t.lay snap
  | None -> invalid_arg "Engine_replay: no restored image to digest against"

(* Freeze the complete execution point as one image around [snap], a
   snapshot of the primary just taken. Runs on the primary's domain
   at a quiescent inter-cycle boundary. [stall] is the cut's capture
   stall, charged after [snap] was taken (0 for the setup image and the
   re-seed after a rollback). *)
let cut_state t ~stall (snap : Checkpoint.snap) =
  let core = Kernel.core t.replicas.(0).kern in
  {
    cs_snap = snap;
    cs_stall = stall;
    cs_next_tick = t.next_tick;
    cs_cycles = core.Core.cycles;
    cs_instret = core.Core.instret;
    cs_jitter = Rng.copy core.Core.jitter;
    cs_bus = Bus.state t.mach.Machine.buses.(0);
    cs_net = Option.map Netdev.snapshot t.net;
  }

let image t = cut_state t ~stall:0 (capture_image t ~kind:Checkpoint.Full)
let cut_cycle cs = cs.cs_snap.Checkpoint.s_cycle

(* Rewind the state outside the sphere of replication ("outside-SoR")
   that an image freezes beside its snapshot: the core's cycle counters
   and jitter RNG, the bus credit and the device queues. The rewound
   timeline runs again, so any halt is cleared. *)
let restore_outside_sor t (cs : cut_state) =
  let core = Kernel.core t.replicas.(0).kern in
  core.Core.cycles <- cs.cs_cycles;
  core.Core.instret <- cs.cs_instret;
  Rng.assign ~dst:core.Core.jitter ~src:cs.cs_jitter;
  Bus.set_state t.mach.Machine.buses.(0) cs.cs_bus;
  (match (t.net, cs.cs_net) with
  | Some nd, Some sn -> Netdev.restore nd sn
  | _ -> ());
  t.halt <- None

(* Restore a cut into a shadow system through the rollback's restore
   path, then add back the cut's capture stall and set the clocks:
   leaves [sys] exactly as the captured system stood at the cut, ready
   to re-execute the chunk. *)
let restore_cut sys (cs : cut_state) =
  restore_snap sys cs.cs_snap;
  charge sys.replicas.(0) cs.cs_stall;
  restore_outside_sor sys cs;
  sys.mach.Machine.now <- cut_cycle cs;
  sys.next_tick <- cs.cs_next_tick

(* Start the pipeline of a freshly created system (run by
   [System.create]): log every host inject from the first cycle (the
   harness may feed the device before it first runs the system), and
   take the cycle-0 image the first chunk starts from. *)
let setup t =
  let ilog = Inputlog.create () in
  Option.iter
    (fun nd ->
      Netdev.set_host_tap nd
        ~on_inject:(fun ~now:deliver_at payload ->
          Inputlog.record ilog ~at:(now t) ~deliver_at payload)
        ())
    t.net;
  t.rp <-
    Some
      {
        rp_log = ilog;
        rp_span = t.cfg.Config.replay_chunk_ticks * t.cfg.Config.tick_interval;
        rp_seq = 0;
        rp_cut = image t;
        rp_next_cut = t.cfg.Config.replay_chunk_ticks;
        rp_inflight = [];
        rp_shadows = [];
        rp_shadows_made = 0;
        rp_hwm = 0;
        rp_idle_cycles = 0;
      }

let shadow_config cfg =
  {
    cfg with
    Config.detection = Config.Lockstep;
    trace = None;
    engine = Config.Sequential;
  }

(* Shadow systems are created lazily (program lint and layout make
   creation too costly per chunk) and pooled: at most
   [replay_checkers] ever exist, each used by one checker domain at a
   time. A shadow differs from the admitted primary only in detection,
   trace and engine, so its own admission cannot fail. *)
let get_shadow t rp =
  match rp.rp_shadows with
  | s :: rest ->
      rp.rp_shadows <- rest;
      Some s
  | [] ->
      if rp.rp_shadows_made < t.cfg.Config.replay_checkers then begin
        rp.rp_shadows_made <- rp.rp_shadows_made + 1;
        match
          create_result ~config:(shadow_config t.cfg)
            ~program:(Kernel.program t.replicas.(0).kern)
        with
        | Ok shadow -> Some shadow
        | Error msg -> invalid_arg ("Engine_replay: shadow refused: " ^ msg)
      end
      else None

(* Re-execute [ch] on [sys] and report whether the end-of-chunk
   signature matches. Runs on a checker domain: it touches only the
   immutable chunk and the private shadow system. Shadow stepping goes
   through [Window.run], which never overshoots its cycle budget, so
   the shadow lands exactly on each input's cycle and on the chunk end
   — unless the guest finishes or halts early, which (on a clean
   replay) the primary did at the same cycle. *)
let verify_chunk sys (ch : chunk) =
  restore_cut sys ch.ch_start;
  let target = cut_cycle ch.ch_end in
  let step_to cycle = Window.run sys ~max_cycles:(cycle - now sys) in
  let rec drive events =
    match Inputlog.next_at events with
    | Some at when at <= target ->
        step_to at;
        let rest =
          match sys.net with
          | Some nd -> Inputlog.replay_onto nd events ~upto:(now sys)
          | None -> []
        in
        drive rest
    | _ -> step_to target
  in
  drive ch.ch_log;
  region_sig sys = ch.ch_sig

(* Hand every queued-but-unassigned chunk to a checker, oldest first,
   while shadows are available. *)
let rec assign_checkers t rp =
  match
    List.find_opt
      (fun i -> match i.if_domain with None -> true | Some _ -> false)
      rp.rp_inflight
  with
  | None -> ()
  | Some inf -> (
      match get_shadow t rp with
      | None -> ()
      | Some sh ->
          let ch = inf.if_chunk in
          inf.if_shadow <- Some sh;
          inf.if_domain <- Some (Domain.spawn (fun () -> verify_chunk sh ch));
          assign_checkers t rp)

let release_shadow rp inf =
  match inf.if_shadow with
  | Some s ->
      rp.rp_shadows <- s :: rp.rp_shadows;
      inf.if_shadow <- None
  | None -> ()

(* Capture the current quiescent point as the next chunk boundary:
   take the image, charge its capture stall, close the accumulating
   chunk into the in-flight queue, and enforce the queue bound (blocking
   on the oldest verdict — backpressure). *)
let rec do_cut t rp =
  (* The stall is priced as a delta checkpoint (the dirty pages) and
     stored in the image: the restored start state of the *next* chunk
     has to contain it, or a replay of that chunk would run ahead of the
     primary's timeline, while a rollback restores the image without
     it. *)
  let snap = capture_image t ~kind:Checkpoint.Delta in
  let stall =
    charge_checkpoint t ~words:(Checkpoint.words snap)
      ~skipped:(Checkpoint.skipped_words snap)
  in
  let cut = cut_state t ~stall snap in
  let closed =
    {
      ch_seq = rp.rp_seq;
      ch_start = rp.rp_cut;
      ch_log = Inputlog.cut rp.rp_log;
      ch_end = cut;
      ch_sig = digest t.lay snap;
    }
  in
  rp.rp_cut <- cut;
  rp.rp_seq <- rp.rp_seq + 1;
  (* Schedule relative to the actual cut tick: a cut the quiescence
     guard delayed must not make the next one degenerate. *)
  rp.rp_next_cut <- t.ticks + t.cfg.Config.replay_chunk_ticks;
  rp.rp_inflight <-
    rp.rp_inflight @ [ { if_chunk = closed; if_domain = None; if_shadow = None } ];
  Metrics.incr t.ms.m_replay_chunks;
  Trace.replay_cut t.trace ~seq:closed.ch_seq;
  assign_checkers t rp;
  let infl = List.length rp.rp_inflight in
  if infl > rp.rp_hwm then rp.rp_hwm <- infl;
  (* Checker utilisation, in deterministic simulated terms: a slot with
     no chunk assigned over the coming chunk span is idle capacity. *)
  let busy =
    List.length
      (List.filter
         (fun i -> match i.if_domain with Some _ -> true | None -> false)
         rp.rp_inflight)
  in
  let idle = t.cfg.Config.replay_checkers - min t.cfg.Config.replay_checkers busy in
  rp.rp_idle_cycles <- rp.rp_idle_cycles + (idle * rp.rp_span);
  (* Backpressure: chunk [j]'s verdict is processed no later than the
     cut that closes chunk [j + depth - 1], so a fault is detected at
     most [depth * chunk_span] cycles after it occurred. *)
  while
    List.length rp.rp_inflight > max 0 (t.cfg.Config.replay_queue_depth - 1)
  do
    harvest_oldest t rp
  done

(* Process the oldest in-flight chunk's verdict, blocking until its
   checker finishes. Verdicts are processed strictly in chunk order. *)
and harvest_oldest t rp =
  match rp.rp_inflight with
  | [] -> ()
  | inf :: rest ->
      assign_checkers t rp;
      let ok =
        match inf.if_domain with
        | Some d -> Domain.join d
        | None ->
            (* Unreachable: the oldest chunk has first claim on a
               shadow, and at least one always exists. *)
            invalid_arg "Engine_replay: unassigned chunk at harvest"
      in
      release_shadow rp inf;
      rp.rp_inflight <- rest;
      let ch = inf.if_chunk in
      let lag = now t - cut_cycle ch.ch_end in
      Metrics.observe t.ms.m_replay_lag (float_of_int lag);
      Trace.replay_verdict t.trace ~seq:ch.ch_seq ~chunk_end:(cut_cycle ch.ch_end)
        ~lag ~ok;
      if ok then begin
        Metrics.incr t.ms.m_replay_verified;
        (* A verified chunk is forward progress: the next mismatch may
           roll back again, as after a verified lockstep checkpoint. *)
        t.retries_at_newest <- 0;
        assign_checkers t rp
      end
      else begin
        Metrics.incr t.ms.m_replay_mismatch;
        on_mismatch t rp inf rest
      end

(* A replayed chunk diverged: everything from its start cycle on is
   suspect. Discard the invalid future (in-flight chunks and the
   accumulating one), roll back to the chunk's start image and reset the
   pipeline. The start gets one retry, the lockstep rule for the newest
   snapshot with no older one to escalate to: a second mismatch before
   any chunk verifies, or a spent [max_rollbacks] budget, means the
   fault is persistent — fail-stop, the lockstep path's verdict for the
   same state. *)
and on_mismatch t rp inf rest =
  log_event t E_mismatch;
  List.iter
    (fun i ->
      (match i.if_domain with Some d -> ignore (Domain.join d) | None -> ());
      release_shadow rp i)
    rest;
  rp.rp_inflight <- [];
  Inputlog.clear rp.rp_log;
  if t.rollbacks_done < t.cfg.Config.max_rollbacks && t.retries_at_newest = 0
  then begin
    let start = inf.if_chunk.ch_start in
    roll_back t start.cs_snap;
    (* [roll_back] rewound the replicated cut; additionally rewind the
       outside-SoR state the image froze, so re-execution re-lives the
       chunk's exact timeline (device deliveries and timing jitter
       included) minus the fault. Host inputs recorded after the chunk
       started are gone with the cleared log; the serving client's
       retransmission path redelivers them. *)
    restore_outside_sor t start;
    (* Pipeline reset: a fresh image of the rolled-back state starts
       the next chunk; its capture also re-baselines the
       dirty-page tracking the next cut is priced by. *)
    rp.rp_cut <- image t;
    rp.rp_seq <- rp.rp_seq + 1;
    rp.rp_next_cut <- t.ticks + t.cfg.Config.replay_chunk_ticks
  end
  else if t.halt = None then halt_system t H_mismatch

(* A cut needs a quiescent primary: the frozen [cut_state] records
   none of the engine's round bookkeeping (an open FT-op rendezvous,
   an in-flight async round), so the shadow restore re-enters at
   [Ph_idle]/[Rs_run] and anything else would diverge. In Base mode
   the primary is idle on almost every cycle; when the tick lands
   mid-rendezvous the cut just waits for the next eligible cycle. *)
let quiescent t =
  (match t.phase with Ph_idle -> true | _ -> false)
  &&
  match t.replicas.(0).state with Rs_run -> true | _ -> false

(* Drain the verification pipeline without waiting for a terminal
   state: close the accumulating chunk (when the primary is at a
   quiescent point — it essentially always is between [run] calls in
   Base mode) and process every outstanding verdict. The serving
   harness calls this through [System.replay_drain] when the client is
   done, so the final report covers every executed chunk; a mismatch
   found here still rolls back (or halts) through the usual path, and
   the caller reads the result off the system state. *)
let drain t =
  match t.rp with
  | None -> ()
  | Some rp ->
      if
        quiescent t
        && (cut_cycle rp.rp_cut < now t || Inputlog.pending rp.rp_log > 0)
      then do_cut t rp;
      while rp.rp_inflight <> [] do
        harvest_oldest t rp
      done

(* The replay run: [Window.run] with a chunk cut at the first quiescent
   cycle once a chunk's ticks have elapsed, plus a drain of the
   verification pipeline when the run reaches a terminal state, so no
   fault escapes in the pipeline's tail. The drain is skipped when the
   budget or the [stop] predicate ended the run — the pipeline keeps
   flowing across [run] calls. A drain can itself detect a mismatch and
   roll the system back to a live state, in which case execution
   resumes within the same call (budget permitting). *)
let run ?stop t ~max_cycles =
  let rp =
    match t.rp with
    | Some rp -> rp
    | None -> invalid_arg "Engine_replay.run: detection is not Replay"
  in
  let deadline = now t + max_cycles in
  let stopped = ref false in
  let stop =
    Option.map
      (fun f t ->
        stopped := f t;
        !stopped)
      stop
  in
  let cut t = if t.ticks >= rp.rp_next_cut && quiescent t then do_cut t rp in
  let rec go () =
    Window.run ~before:cut ?stop t ~max_cycles:(deadline - now t);
    if
      (not !stopped)
      && (finished t || t.halt <> None)
      && (rp.rp_inflight <> []
         || cut_cycle rp.rp_cut < now t
         || Inputlog.pending rp.rp_log > 0)
    then begin
      do_cut t rp;
      while rp.rp_inflight <> [] do
        harvest_oldest t rp
      done;
      if t.halt = None && not (finished t) then go ()
    end
  in
  go ()
