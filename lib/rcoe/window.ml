(* The run loop: the only code in the library that steps simulated
   cycles. Every step it takes moves each replica through
   [Sched.advance], the one replica step, and differs only in how far.
   Each iteration of [run] first runs an optional [before] hook (replay
   detection cuts its chunks there), then takes one of three steps:

   - one execution window, when the caller passed [jobs]: each running
     replica's [job] advances it up to the window cap;
   - else, on [Blocks], the next run of quiet cycles at once ([skip]):
     cycles in which at most one replica, the lone runner, executes
     instructions and the round decides nothing before the runner's
     first event — every unreplicated run between its events, catch-ups
     and chases while the leader waits, and the stalled, idle and
     barrier-spinning replicas of async rounds and of runs without
     exception barriers, which open no windows;
   - else one [classic_cycle]: tick the machine, advance every replica
     one cycle in rid order, and advance the round state machine. On
     [Interp] this is the reference all faster steps are held
     bit-identical to.

   One [horizon] bounds both fast steps, so that no round-lifecycle
   decision the classic loop would take falls strictly inside them.

   Execution windows. Between two sync points every live replica only
   touches private state: its own memory partition, its own core and
   kernel, its own per-core bus lane, and its own child trace buffer. A
   *window* is a span of simulated cycles [s+1 .. cap] in which each
   running replica is advanced by a [job] that touches nothing else.
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
   - On [Blocks], [Sched.advance] runs a replica from one core event to
     the next in one [Blockc.run] on its own bus lane: the per-cycle
     decision is loop-invariant between events, so one burst of [n]
     cycles is the same as [n] per-cycle iterations. The trace events a
     burst can emit, a breakpoint fire and a bus-stall span, read the
     job's clock, which [Blockc.run]'s [~at] moves to their cycle first.

   The window then "actually" ends at [w_actual], the cycle at which the
   per-cycle loop would next have run round-lifecycle code: the
   completion cycle when every live replica reached the rendezvous, the
   last finish cycle when the workload completed, or the window cap.
   Every replica then advances from the cycle it reached to [w_actual],
   and the unmodified classic [Sched.advance_phase] runs once there and
   arbitrates completion against timeouts just as it does every cycle
   under per-cycle stepping. *)

open Rcoe_machine
open Rcoe_kernel
open Sched
module Trace = Rcoe_obs.Trace
module Metrics = Rcoe_obs.Metrics

(* [Sched.advance] in a fast step, counting the core cycles it ran, all
   in [Blockc.run] on [Blocks], as burst cycles. *)
let burst t r ~from ~upto =
  let core = Kernel.core r.kern in
  let before = core.Core.cycles in
  let c = advance t r ~from ~upto in
  (match Kernel.block_cache r.kern with
  | Some bc ->
      let st = Blockc.stats bc in
      st.Blockc.burst_cycles <-
        st.Blockc.burst_cycles + core.Core.cycles - before
  | None -> ());
  c

(* The classic cycle: tick the machine, advance every replica one cycle
   in rid order, then let the round-lifecycle state machine react. A
   loop, so that the cycle allocates nothing. *)
let classic_cycle t =
  Machine.tick t.mach;
  let s = now t - 1 and rs = t.replicas in
  for i = 0 to Array.length rs - 1 do
    ignore (advance t rs.(i) ~from:s ~upto:(s + 1))
  done;
  advance_phase t

(* Advance one replica from cycle [s] towards [cap] under its window
   context until [Sched.advance] parks it, at a rendezvous or once it
   finished. No IPI or gather join, hence no act, falls inside a window.
   Safe to run concurrently with the other replicas' jobs. *)
let rec job t r w ~s ~cap =
  if w.wpark = None then
    let c = burst t r ~from:s ~upto:cap in
    if c > s then job t r w ~s:c ~cap

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
   ([Sched.decide]), the round is not ready to complete
   ([Sched.round_ready]), and no tick, IRQ, frame delivery or timeout is
   due before the [horizon]. An unreplicated run always has a runner
   when its thread is live. The runner is the [D_user] replica whose
   stall ends first, so [k] is bounded by every other [D_user]
   replica's stall, every replica's [ipi_bound] and the horizon. The
   runner advances up to [k] cycles and stops at its first event, at
   cycle [c]; [Sched.advance] moves the machine clock there and ticks
   the devices before it handles the event. Everyone else then advances
   to [c] too: a stalled replica in one [Blockc.run], a barrier spinner
   in closed form, a still one's lane at once. [advance_phase] runs at
   [c], as at the end of a classic cycle. Cycles in which two replicas
   execute stay per cycle: without exception barriers an uncontrolled
   kernel abort in one stops the others at that very cycle. Returns
   false, having done nothing, when no cycle is quiet. The scan that
   refuses allocates nothing. *)
let skip t ~s ~start ~max_cycles ~has_stop =
  t.cfg.Config.exec_backend = Config.Blocks
  &&
  let n = Array.length t.replicas in
  let runner = ref (-1) and runner_stall = ref max_int in
  let k = ref max_int and i = ref 0 in
  while !k > 0 && !i < n do
    let r = t.replicas.(!i) in
    (match decide t r ~s with
    | D_ipi | D_join | D_arrive | D_arm | D_pmu | D_publish | D_halt -> k := 0
    | D_spin -> ()
    | D_still -> k := Int.min !k (ipi_bound t r ~s)
    | D_user ->
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
       let c =
         if runner < 0 then s + k
         else burst t t.replicas.(runner) ~from:s ~upto:(s + k)
       in
       for i = 0 to n - 1 do
         if i <> runner then ignore (burst t t.replicas.(i) ~from:s ~upto:c)
       done;
       advance_phase t;
       true
     end

(* Give every running replica a window context. Parked, halted and
   removed replicas have no private work: [retire] advances them to the
   window end. *)
let open_window t ~s =
  Array.iter
    (fun r ->
      if r.state = Rs_run then begin
        let w =
          { wv_now = s; wv_vm_exits = 0; wv_events = []; wpark = None }
        in
        r.wctx <- Some w;
        Trace.begin_buffering r.rtrace ~clock:(fun () -> w.wv_now)
      end)
    t.replicas

(* Settle a window over cycles [s+1 .. cap] whose jobs have all
   returned: replay their deferred effects, bring every replica, its
   stall and its lane, and the devices to the window end, and run the
   round-lifecycle decision the per-cycle loop would have run there. *)
let retire t ~s ~cap =
  (* Where the per-cycle loop would next have made a decision: when every
     live replica parked the same way (a rendezvous spinner with no job
     counts as parked there), the last such park, else the cap. *)
  let last_park kind =
    let lv = live_replicas t in
    List.fold_left
      (fun acc r ->
        match (acc, r.wctx) with
        | Some c, Some { wpark = Some (ts, k); _ } when k = kind ->
            Some (max c ts)
        | Some c, None
          when kind = Pk_rendezvous
               && r.state = Rs_rendezvous
               && arrived_bar t r.rid ->
            Some c
        | _ -> None)
      (if lv = [] then None else Some (s + 1))
      lv
  in
  let w_actual =
    match (last_park Pk_rendezvous, last_park Pk_inert) with
    | Some c, _ | None, Some c -> c
    | None, None -> cap
  in
  (* Replay deferred shared-state effects in (cycle, rid) order — the
     per-cycle stepping order. The machine clock tracks each effect's
     cycle so logs, trace stamps and rendezvous bookkeeping match the
     per-cycle loop exactly; children are still buffering, so trace
     events emitted here land *after* the replica's in-window events. *)
  let effects =
    Array.to_list t.replicas
    |> List.concat_map (fun r ->
           match r.wctx with
           | None -> []
           | Some w -> (
               List.rev_map (fun (ts, k) -> (ts, r.rid, `Event k)) w.wv_events
               @
               match w.wpark with
               | Some (ts, Pk_rendezvous) -> [ (ts, r.rid, `Rdv) ]
               | _ -> []))
    |> List.stable_sort (fun (ts_a, rid_a, _) (ts_b, rid_b, _) ->
           compare (ts_a, rid_a) (ts_b, rid_b))
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
  t.mach.Machine.now <- w_actual;
  (* Device catch-up: the [horizon] keeps every frame delivery at or
     after the window cap, so one tick at the window-end cycle delivers
     exactly what the per-cycle ticks would have by now, stamped with
     the same cycle, before [advance_phase] polls the interrupt line or
     a completed rendezvous consumes device state. *)
  Machine.tick_devices t.mach;
  (* Every replica advances from the cycle it reached (its park, the cap,
     or without a job the window start) to the window end: a spinner's
     stall decays, and every lane ticks the cycles it has not. *)
  Array.iter
    (fun r ->
      let from =
        match r.wctx with
        | Some { wpark = Some (ts, _); _ } -> ts
        | Some _ -> cap
        | None -> s
      in
      ignore (advance t r ~from ~upto:w_actual))
    t.replicas;
  (* Settle deferred metrics, then commit per-replica trace buffers into
     the shared ring in deterministic order. *)
  let bufs =
    Array.map
      (fun r ->
        match r.wctx with
        | Some w ->
            if w.wv_vm_exits > 0 then
              Metrics.incr ~by:w.wv_vm_exits t.ms.m_vm_exits;
            r.wctx <- None;
            Trace.end_buffering r.rtrace
        | None -> [])
      t.replicas
  in
  Trace.merge_buffered t.trace bufs;
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

(* Whether a running replica has an IPI in flight. A loop, so that
   it allocates nothing. *)
let ipi_in_flight t =
  let rs = t.replicas in
  let i = ref 0 in
  while
    !i < Array.length rs
    &&
    let r = rs.(!i) in
    match r.state with
    | Rs_run -> t.mach.Machine.ipi_pending.(r.rid) = max_int
    | _ -> true
  do
    incr i
  done;
  !i < Array.length rs

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
              | Ph_idle | Ph_rdv _ -> not (ipi_in_flight t)
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
