(* The run loop: the only code in the library that steps simulated
   cycles. Each iteration of [run] first runs an optional [before] hook
   (replay detection cuts its chunks there), then takes one of three
   steps:

   - one execution window, when the caller passed [jobs];
   - else, on [Blocks], the next run of quiet cycles at once ([skip]):
     cycles in which at most one replica, the lone runner, executes
     instructions and the round decides nothing before the runner's
     first event — every unreplicated run between its events, catch-ups
     and chases while the leader waits, and the stalled, idle and
     barrier-spinning replicas of async rounds and of runs without
     exception barriers, which open no windows;
   - else one [classic_cycle]: tick the machine, step every replica in
     rid order, and advance the round state machine. On [Interp] this
     is the reference all faster steps are held bit-identical to.

   One [horizon] bounds both fast steps, so that no round-lifecycle
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
     the replica's own bus lane, when the backend is [Blocks]: the
     per-cycle checks of [job] are loop-invariant between events, so
     one burst of [n] cycles is the same as [n] per-cycle iterations.
     The trace events a burst can emit, a breakpoint fire and a
     bus-stall span, read the job's clock, which [Blockc.run]'s [~at]
     moves to their cycle first.

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

(* Run [r]'s core through [Blockc.run] on its own bus lane for up to
   [fuel] cycles, counted as burst cycles, which the caller reads off
   the core's [cycles]. Returns the event that ended the run, if any. *)
let run_lane t r ~fuel ~at =
  let bc = Option.get (Kernel.block_cache r.kern) in
  let core = Kernel.core r.kern in
  let before = core.Core.cycles in
  let lane = Machine.bus_lane t.mach ~core_id:r.rid in
  let ev = Blockc.run bc ~buses:[| lane |] ~fuel ~at in
  let st = Blockc.stats bc in
  st.Blockc.burst_cycles <- st.Blockc.burst_cycles + core.Core.cycles - before;
  ev

(* Step one replica through cycles [s+1 .. cap], or fewer if it parks.
   Mirrors the [Rs_run] arm of [Sched.step_replica] minus the cases that
   cannot occur inside a window (IPIs are checked before the window
   opens; gather-joins only exist during async rounds). The job ticks
   its own bus lane each cycle it simulates — [retire] tops the lane up
   to the window end afterwards. Safe to run concurrently with the jobs
   of the other replicas of the same window. *)
let job t r w ~s ~cap =
  let lane = Machine.bus_lane t.mach ~core_id:r.rid in
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
      | Some _ ->
          let first = !c and before = core.Core.cycles in
          let ev =
            run_lane t r ~fuel:(cap - first + 1)
              ~at:(fun k -> w.wv_now <- first + k - 1)
          in
          let consumed = core.Core.cycles - before in
          let last = first + consumed - 1 in
          w.wv_now <- last;
          w.w_ticked <- w.w_ticked + consumed;
          Option.iter
            (fun ev ->
              on_event t r ev;
              settle last)
            ev;
          c := last + 1
      | None ->
          tick !c;
          run_user t r;
          settle !c;
          incr c
  done

(* Furthest cycle the next window may reach, and one past the last
   cycle a quiet-cycle skip may run. Chosen so that no
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
           else Int.min t.next_tick (s + 1 + t.cfg.Config.barrier_timeout)),
          Netdev.next_event )
    | Ph_async round -> (timeout round.round_started, Netdev.next_delivery)
    | Ph_rdv { rdv_started } -> (timeout rdv_started, Netdev.next_delivery)
  in
  let cap =
    match t.net with
    | Some nd -> (
        match next_event nd ~after:s with Some e -> Int.min cap e | None -> cap)
    | None -> cap
  in
  let cap = Int.min cap (start + max_cycles) in
  if has_stop then Int.min cap (((s lsr 7) + 1) lsl 7) else cap

(* The quiet-cycle skip, tried on [Blocks] where the run loop would
   otherwise fall back to [classic_cycle]. It takes the next cycles in
   which at most one replica, the runner, executes instructions: every
   other one only stalls, spins at a barrier, idles or is halted
   ([Sched.quiet]), the round is not ready to complete
   ([Sched.round_ready]), and no tick, IRQ, frame delivery or timeout is
   due before the [horizon]. An unreplicated run always has a runner
   when its thread is live. The runner is the [Q_user] replica whose
   stall ends first, so [k] is bounded by every other [Q_user]
   replica's stall, every replica's [ipi_bound] and the horizon. The
   runner runs [Blockc.run ~fuel:k] on its own lane and stops at its
   first event, after [c] cycles. Everyone else then takes those [c]
   cycles: a stalled replica in one [Blockc.run] on its lane, a barrier
   spinner's stall in closed form ([Sched.spin]), every other lane
   topped up. The machine clock moves to [s + c], followed by one
   device tick as after a window; the runner's event is handled, and
   [advance_phase] runs there, as at the end of a classic cycle. Cycles
   in which two replicas execute stay per cycle: without exception
   barriers an uncontrolled kernel abort in one stops the others at
   that very cycle. Returns false, having done nothing, when no cycle
   is quiet. The scan that refuses allocates nothing. *)
let skip t ~s ~start ~max_cycles ~has_stop =
  t.cfg.Config.exec_backend = Config.Blocks
  &&
  let n = Array.length t.replicas in
  let runner = ref (-1) and runner_stall = ref max_int in
  let k = ref max_int and i = ref 0 in
  while !k > 0 && !i < n do
    let r = t.replicas.(!i) in
    (match quiet t r ~s with
    | Q_acts -> k := 0
    | Q_spins -> ()
    | Q_still -> k := Int.min !k (ipi_bound t r ~s)
    | Q_user ->
        let stall = (Kernel.core r.kern).Core.stall in
        (* Whoever does not run may only stall. *)
        if stall < !runner_stall then begin
          k := Int.min !k !runner_stall;
          runner := !i;
          runner_stall := stall
        end
        else k := Int.min !k stall;
        if !k > 0 then k := Int.min !k (ipi_bound t r ~s));
    incr i
  done;
  let runner = !runner and k = !k in
  k > 0
  && (not (round_ready t))
  &&
  let k = Int.min k (horizon t ~s ~start ~max_cycles ~has_stop - s - 1) in
  k > 0
  && begin
       let at j = t.mach.Machine.now <- s + j in
       let ev, c =
         if runner < 0 then (None, k)
         else
           let r = t.replicas.(runner) in
           let core = Kernel.core r.kern in
           let before = core.Core.cycles in
           let ev = run_lane t r ~fuel:k ~at in
           (ev, core.Core.cycles - before)
       in
       for i = 0 to n - 1 do
         if i <> runner then begin
           let r = t.replicas.(i) in
           let lane = Machine.bus_lane t.mach ~core_id:r.rid in
           match quiet t r ~s with
           | Q_user -> ignore (run_lane t r ~fuel:c ~at)
           | Q_spins ->
               spin r ~cycles:c;
               Bus.advance lane ~cycles:c
           | Q_still | Q_acts -> Bus.advance lane ~cycles:c
         end
       done;
       t.mach.Machine.now <- s + c;
       Machine.tick_devices t.mach;
       (match ev with
       | Some ev -> on_user_event t t.replicas.(runner) ev
       | None -> ());
       advance_phase t;
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
   when the run takes no windows: an unreplicated run's lone replica
   runs through the skip instead, and an [Interp] run stays per-cycle as
   the oracle the windows are held equal to. *)
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
        | None -> false
      in
      if not (fast || skip t ~s ~start ~max_cycles ~has_stop) then
        classic_cycle t;
      match stop with
      | Some f when now t land 127 = 0 -> if f t then continue_ := false
      | _ -> ()
    end
  done
