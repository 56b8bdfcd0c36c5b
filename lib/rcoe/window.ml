(* The run loop: the only code in the library that steps simulated
   cycles. Each iteration of [run] first runs an optional [before] hook
   (replay detection cuts its chunks there), then takes one of four
   steps:

   - one execution window, when the caller passed [jobs];
   - else a quiescent burst of an unreplicated run on the [Blocks]
     backend ([burst]);
   - else, on [Blocks], the next run of quiet cycles at once ([skip]):
     cycles in which no replica executes an instruction and the round
     decides nothing — stalled, idle and barrier-spinning replicas,
     mostly inside async rounds and in runs without exception barriers,
     which open no windows;
   - else one [classic_cycle]: tick the machine, step every replica in
     rid order, and advance the round state machine. On [Interp] this
     is the reference all faster steps are held bit-identical to.

   One [horizon] bounds all three fast steps, so that no round-lifecycle
   decision the classic loop would take falls strictly inside them.

   Execution windows. Between two sync points every live replica only
   touches private state: its own memory partition, its own core and
   kernel, its own per-core bus lane, and its own child trace buffer. A
   *window* is a span of simulated cycles [s+1 .. cap] in which each
   running replica is stepped by a [job] that touches nothing else.
   [Engine_par] runs the jobs of one window concurrently, one per
   [Domain.t]; [inline_jobs] runs them on the calling domain, replica
   after replica. Only replicated runs open windows. Everything that
   couples replicas — round initiation, IPIs, barriers, catch-up,
   voting, FT-operation commits, checkpoint capture/restore, fault
   handling policy — runs between windows, in [retire] and in
   [classic_cycle].

   The contract is bit-for-bit determinism with per-cycle stepping:
   same cycle counts, signatures, votes, outcomes, metrics, and
   cycle-stamped trace events. Four mechanisms make that hold:

   - Windows only cover cycle ranges the per-cycle loop would have
     executed without cross-replica interaction. A window never extends
     past the [horizon], and is not attempted at all during async
     rounds or while an IPI is pending.
   - Jobs never speculate: a job parks at its replica's first cycle with
     a shared-state effect (a sync-point rendezvous) and records the
     cycle, so nothing must ever be rewound.
   - Deferred effects (rendezvous entries, notable events, trace events)
     are replayed by [retire] in (cycle, replica-id) order — exactly the
     order the per-cycle loop's rid-ordered stepping produces.
   - Between core events a job runs its replica through [Blockc.run] on
     the replica's own bus lane, when the backend is [Blocks] and no
     breakpoint is armed: the per-cycle checks of [job] are
     loop-invariant between events, so one burst of [n] cycles is the
     same as [n] per-cycle iterations. The one trace event a burst can
     emit, a bus-stall span, reads the job's clock, which [Blockc.run]'s
     [~at] moves to the flush cycle first.

   The window then "actually" ends at [w_actual], the cycle at which the
   per-cycle loop would next have run round-lifecycle code: the
   completion cycle when every live replica reached the rendezvous, the
   last finish cycle when the workload completed, or the window cap.
   The unmodified classic [Sched.advance_phase] runs once at that cycle
   and arbitrates completion against timeouts just as it does every
   cycle under per-cycle stepping. *)

open Rcoe_machine
open Rcoe_kernel
open Sched
module Trace = Rcoe_obs.Trace
module Metrics = Rcoe_obs.Metrics

(* The classic cycle: advance the machine, step every replica in rid
   order, then let the round-lifecycle state machine react. *)
let classic_cycle t =
  Machine.tick t.mach;
  Array.iter (fun r -> step_replica t r) t.replicas;
  advance_phase t

(* Step one replica through cycles [s+1 .. cap], or fewer if it parks.
   Mirrors the [Rs_run] arm of [Sched.step_replica] minus the cases that
   cannot occur inside a window (IPIs are checked before the window
   opens; gather-joins only exist during async rounds). The job ticks
   its own bus lane each cycle it simulates — [retire] tops the lane up
   to the window end afterwards. Safe to run concurrently with the jobs
   of the other replicas of the same window. *)
let job t r w ~s ~cap =
  let lane = Machine.bus_lane t.mach ~core_id:r.rid in
  let lanes = [| lane |] in
  let core = Kernel.core r.kern in
  let bc = Kernel.block_cache r.kern in
  (* A finish or fail-stop *during* cycle [c] ends the job's window at
     [c] — the per-cycle loop would have noticed it in the same
     iteration. *)
  let settle c =
    if w.wpark = None then
      if core.Core.halted || r.state = Rs_halted then
        w.wpark <- Some (c, Pk_dead)
      else if r.finished then w.wpark <- Some (c, Pk_inert)
  in
  let tick c =
    w.wv_now <- c;
    Bus.tick lane;
    w.w_ticked <- w.w_ticked + 1
  in
  let park c k =
    tick c;
    w.wpark <- Some (c, k)
  in
  let c = ref (s + 1) in
  while !c <= cap && w.wpark = None do
    if core.Core.halted || r.state = Rs_halted then park !c Pk_dead
    else if r.finished then park !c Pk_inert
    else if Kernel.current_tid r.kern < 0 then park !c Pk_idle
    else
      match bc with
      | Some bc when core.Core.bp = None && not core.Core.bp_suppress ->
          let first = !c in
          let consumed, ev =
            Blockc.run bc ~buses:lanes ~fuel:(cap - first + 1)
              ~at:(fun k -> w.wv_now <- first + k - 1)
          in
          let last = first + consumed - 1 in
          w.wv_now <- last;
          w.w_ticked <- w.w_ticked + consumed;
          Option.iter
            (fun ev ->
              on_event t r ev;
              settle last)
            ev;
          c := last + 1
      | _ ->
          tick !c;
          run_user t r;
          settle !c;
          incr c
  done

(* Furthest cycle the next window may reach, and one past the last
   cycle a Base burst or a quiet-cycle skip may run. Chosen so that no
   round-lifecycle decision the per-cycle loop would take falls strictly
   inside the step:
   - [Ph_idle]: up to the next preemption tick. For replicated modes
     also at most [barrier_timeout] cycles out, so a rendezvous that
     *starts* inside the window (earliest at [s+1]) cannot have its
     timeout deadline fire before the window ends.
   - [Ph_async] and [Ph_rdv]: exactly up to the timeout deadline — the
     first cycle at which [advance_phase] declares the timeout. No
     window opens in an async round ([run]'s [windowable]); the bound
     serves the skip.
   With a NIC attached, also no further than the device's next
   spontaneous event. In [Ph_idle] that includes an already-raised
   interrupt line: [advance_phase] polls the line only in that phase, so
   the step must end exactly at the cycle where the per-cycle loop's
   poll would fire. In every phase it includes the next frame delivery,
   which the [on_rx] observer stamps with its cycle: the device catch-up
   at a step's end would deliver it late. Always clipped to the run
   budget and, when a [~stop] predicate is installed, to the next
   multiple-of-128 polling cycle. *)
let horizon t ~s ~start ~max_cycles ~has_stop =
  let timeout started = started + t.cfg.Config.barrier_timeout + 1 in
  let cap, next_event =
    match t.phase with
    | Ph_idle ->
        ( (if t.cfg.Config.mode = Config.Base then t.next_tick
           else min t.next_tick (s + 1 + t.cfg.Config.barrier_timeout)),
          Netdev.next_event )
    | Ph_async round -> (timeout round.round_started, Netdev.next_delivery)
    | Ph_rdv { rdv_started } -> (timeout rdv_started, Netdev.next_delivery)
  in
  let cap =
    match t.net with
    | Some nd -> (
        match next_event nd ~after:s with Some e -> min cap e | None -> cap)
    | None -> cap
  in
  let cap = min cap (start + max_cycles) in
  if has_stop then min cap (((s lsr 7) + 1) lsl 7) else cap

(* Quiescent-burst fast path for an unreplicated run on the
   block-compiled backend. Such a machine spends almost every cycle in
   the same configuration: phase [Ph_idle], the one replica in [Rs_run]
   with no breakpoint armed, no devices but the NIC, no IPI in flight.
   Every per-cycle check [classic_cycle] performs is
   loop-invariant across such a stretch, and [advance_phase] is a no-op
   on every cycle before the [horizon]. So [Blockc.run] burns up to the
   cycle before the horizon in a tight loop that refills the bus lanes
   inline, and the elapsed time is accounted to [Machine.now] — also
   mid-burst, through [~at], before a bus-stall span reads it; the
   horizon cycle itself runs through [classic_cycle], whose
   [Machine.tick] delivers any device activity and whose
   [advance_phase] delivers the tick or IRQ on exactly the cycles
   per-cycle stepping would. Guest device access cannot happen
   mid-burst: MMIO is syscall-mediated ([translate_mmio]), and a
   syscall ends the burst. The differential suite and the [bench exec]
   identity gate hold the two paths equal. Returns false, having done
   nothing, when a precondition fails; the horizon is computed only
   once every cheaper test has passed. *)
let burst t ~s ~start ~max_cycles ~has_stop =
  let cfg = t.cfg in
  cfg.Config.exec_backend = Config.Blocks
  && cfg.Config.mode = Config.Base
  && Array.length t.mach.Machine.devices
     <= (match t.net with Some _ -> 1 | None -> 0)
  &&
  let r = t.replicas.(0) in
  let core = Kernel.core r.kern in
  match (r.state, Kernel.block_cache r.kern) with
  | Rs_run, Some bc
    when (not r.finished)
         && (not core.Core.halted)
         && core.Core.bp = None
         && (not core.Core.bp_suppress)
         && Kernel.current_tid r.kern >= 0
         && not (Machine.ipi_visible t.mach ~core_id:0) ->
      let fuel = horizon t ~s ~start ~max_cycles ~has_stop - s - 1 in
      fuel > 0
      &&
      let consumed, ev =
        Blockc.run bc ~buses:t.mach.Machine.buses ~fuel
          ~at:(fun k -> t.mach.Machine.now <- s + k)
      in
      t.mach.Machine.now <- s + consumed;
      (* Refresh the device clock before dispatching the event: a
         terminating syscall may read or write device registers, and
         their completion stamps must carry the post-burst cycle exactly
         as under per-cycle stepping (where [dev_tick] runs every
         cycle). Nothing can be due for delivery before the horizon. *)
      Machine.tick_devices t.mach;
      Option.iter (on_event t r) ev;
      true
  | _ -> false

(* The quiet-cycle skip, tried on [Blocks] where the run loop would
   otherwise fall back to [classic_cycle]. A quiet cycle is one in which
   the classic cycle executes no instruction and decides nothing: every
   replica [step_replica] would step is stalled, every other one is
   idle, halted, removed or spinning at a barrier ([Sched.quiet]), the
   round is not ready to complete ([Sched.round_ready]), and no tick,
   IRQ, frame delivery or timeout is due before the [horizon]. The skip
   takes the next [k] quiet cycles at once: a stalled replica runs
   [Blockc.run ~fuel:k] on its own lane, which takes the whole stall in
   one step; a barrier spinner's stall decays in closed form
   ([Sched.spin]); every other lane is topped up; and the machine clock
   moves by [k], followed by one device tick, as after a window. The
   horizon cycle itself, and any cycle with work, runs through
   [classic_cycle]. Returns false, having done nothing, when no cycle
   is quiet. *)
let skip t ~s ~start ~max_cycles ~has_stop =
  t.cfg.Config.exec_backend = Config.Blocks
  &&
  let n = Array.length t.replicas in
  let rec bound i k =
    if i = n then k
    else
      match quiet t t.replicas.(i) ~s with
      | Q_acts -> 0
      | Q_spins -> bound (i + 1) k
      | Q_stalled m | Q_still m -> bound (i + 1) (min k m)
  in
  let k = bound 0 max_int in
  k > 0
  && (not (round_ready t))
  &&
  let k = min k (horizon t ~s ~start ~max_cycles ~has_stop - s - 1) in
  k > 0
  && begin
       Array.iter
         (fun r ->
           let lane = Machine.bus_lane t.mach ~core_id:r.rid in
           match quiet t r ~s with
           | Q_stalled _ ->
               let bc = Option.get (Kernel.block_cache r.kern) in
               ignore
                 (Blockc.run bc ~buses:[| lane |] ~fuel:k
                    ~at:(fun j -> t.mach.Machine.now <- s + j))
           | Q_spins ->
               spin r ~cycles:k;
               Bus.advance lane ~cycles:k
           | Q_still _ | Q_acts -> Bus.advance lane ~cycles:k)
         t.replicas;
       t.mach.Machine.now <- s + k;
       Machine.tick_devices t.mach;
       true
     end

(* Give every running replica a window context. Parked, halted and
   removed replicas have no private work — their bus lanes and
   barrier-stall decay are settled arithmetically by [retire]. *)
let open_window t ~s =
  Array.iter
    (fun r ->
      if r.state = Rs_run then begin
        let w =
          { wv_now = s; wv_vm_exits = 0; wv_events = []; wpark = None;
            w_ticked = 0 }
        in
        r.wctx <- Some w;
        Trace.begin_buffering r.rtrace ~clock:(fun () -> w.wv_now)
      end)
    t.replicas

(* Settle a window over cycles [s+1 .. cap] whose jobs have all
   returned: replay their deferred effects, bring every lane, stall and
   device to the window end, and run the round-lifecycle decision the
   per-cycle loop would have run there. *)
let retire t ~s ~cap =
  (* Where the per-cycle loop would next have made a decision. *)
  let park r = match r.wctx with Some w -> w.wpark | None -> None in
  let lv = live_replicas t in
  let all_rdv =
    lv <> []
    && List.for_all
         (fun r ->
           match park r with
           | Some (_, Pk_rendezvous) -> true
           | Some _ -> false
           | None -> r.state = Rs_rendezvous && arrived_bar t r.rid)
         lv
  in
  let all_inert =
    lv <> []
    && List.for_all
         (fun r ->
           match park r with Some (_, Pk_inert) -> true | _ -> false)
         lv
  in
  let max_park kind =
    Array.fold_left
      (fun acc r ->
        match park r with
        | Some (ts, k) when k = kind -> max acc ts
        | _ -> acc)
      (s + 1) t.replicas
  in
  let w_actual =
    if all_rdv then max_park Pk_rendezvous
    else if all_inert then max_park Pk_inert
    else cap
  in
  (* Replay deferred shared-state effects in (cycle, rid) order — the
     per-cycle stepping order. The machine clock tracks each effect's
     cycle so logs, trace stamps and rendezvous bookkeeping match the
     per-cycle loop exactly; children are still buffering, so trace
     events emitted here land *after* the replica's in-window events. *)
  let effects = ref [] in
  Array.iter
    (fun r ->
      match r.wctx with
      | None -> ()
      | Some w ->
          let evs =
            List.rev_map (fun (ts, k) -> (ts, r.rid, `Event k)) w.wv_events
          in
          let parks =
            match w.wpark with
            | Some (ts, Pk_rendezvous) -> [ (ts, r.rid, `Rdv) ]
            | _ -> []
          in
          effects := !effects @ evs @ parks)
    t.replicas;
  let effects =
    List.stable_sort
      (fun (ts_a, rid_a, _) (ts_b, rid_b, _) ->
        compare (ts_a, rid_a) (ts_b, rid_b))
      !effects
  in
  List.iter
    (fun (ts, rid, eff) ->
      let r = t.replicas.(rid) in
      t.mach.Machine.now <- ts;
      (match r.wctx with Some w -> w.wv_now <- ts | None -> ());
      match eff with
      | `Event k -> log_event t k
      | `Rdv -> enter_rendezvous t r)
    effects;
  (* Barrier-spin stall decay: the per-cycle loop decrements a parked
     replica's residual stall by one per cycle; apply the window's worth
     in closed form. *)
  Array.iter
    (fun r ->
      if r.state = Rs_rendezvous then
        let since =
          match r.wctx with
          | Some { wpark = Some (ts, Pk_rendezvous); _ } -> ts
          | _ -> s
        in
        spin r ~cycles:(w_actual - since))
    t.replicas;
  (* Top every bus lane up to the window end: the per-cycle loop's
     Machine.tick runs all lanes every cycle, including those of parked,
     halted and removed cores. *)
  let span = w_actual - s in
  Array.iter
    (fun r ->
      let ticked = match r.wctx with Some w -> w.w_ticked | None -> 0 in
      Bus.advance
        (Machine.bus_lane t.mach ~core_id:r.rid)
        ~cycles:(max 0 (span - ticked)))
    t.replicas;
  t.mach.Machine.now <- w_actual;
  (* Device catch-up: the [horizon] keeps every frame delivery at or
     after the window cap, so one tick at the window-end cycle delivers
     exactly what the per-cycle ticks would have by now, stamped with
     the same cycle, before [advance_phase] polls the interrupt line or
     a completed rendezvous consumes device state. *)
  Machine.tick_devices t.mach;
  (* Commit per-replica trace buffers into the shared ring in
     deterministic order, then settle deferred metrics. *)
  let bufs =
    Array.map
      (fun r ->
        match r.wctx with
        | Some _ -> Trace.end_buffering r.rtrace
        | None -> [])
      t.replicas
  in
  Trace.merge_buffered t.trace bufs;
  Array.iter
    (fun r ->
      match r.wctx with
      | Some w ->
          if w.wv_vm_exits > 0 then
            Metrics.incr ~by:w.wv_vm_exits t.ms.m_vm_exits;
          r.wctx <- None
      | None -> ())
    t.replicas;
  (* The classic per-cycle decision point, run at the window-end cycle. *)
  advance_phase t

(* The jobs of a [Sequential] run, run inline in rid order, or [None]
   when the run takes no windows: unreplicated runs burst instead, and
   an [Interp] run stays per-cycle as the oracle the windows are held
   equal to. *)
let inline_jobs t =
  let cfg = t.cfg in
  let net_ok =
    match t.elig with Some e -> Eligibility.eligible e | None -> false
  in
  if
    cfg.Config.mode <> Config.Base
    && cfg.Config.exec_backend = Config.Blocks
    && Config.parallel_ineligibility ~net_ok cfg = None
  then
    Some
      (fun ~s ~cap ->
        Array.iter
          (fun r -> match r.wctx with Some w -> job t r w ~s ~cap | None -> ())
          t.replicas)
  else None

(* The run loop. [jobs ~s ~cap] must run [job] for every replica
   [open_window] gave a context, and return once all of them have.
   [before] runs at the top of every iteration; the step is skipped when
   it left the system halted or finished. *)
let run ?before ?jobs ?stop t ~max_cycles =
  let start = now t in
  let has_stop = stop <> None in
  let continue_ = ref true in
  while
    !continue_ && t.halt = None
    && (not (finished t))
    && now t - start < max_cycles
  do
    let live =
      match before with
      | None -> true
      | Some f ->
          f t;
          t.halt = None && not (finished t)
    in
    if live then begin
      let s = now t in
      let fast =
        match jobs with
        | Some jobs ->
            (* A window is possible only between sync points with no IPI
               in flight; async rounds and IPI delivery interleave
               replicas at cycle granularity. *)
            let windowable =
              match t.phase with
              | Ph_async _ -> false
              | Ph_idle | Ph_rdv _ ->
                  not
                    (Array.exists
                       (fun r ->
                         r.state = Rs_run
                         && t.mach.Machine.ipi_pending.(r.rid) <> max_int)
                       t.replicas)
            in
            let cap =
              if windowable then horizon t ~s ~start ~max_cycles ~has_stop
              else s
            in
            cap > s
            && begin
                 open_window t ~s;
                 jobs ~s ~cap;
                 retire t ~s ~cap;
                 true
               end
        | None -> burst t ~s ~start ~max_cycles ~has_stop
      in
      if not (fast || skip t ~s ~start ~max_cycles ~has_stop) then
        classic_cycle t;
      match stop with
      | Some f when now t land 127 = 0 -> if f t then continue_ := false
      | _ -> ()
    end
  done
