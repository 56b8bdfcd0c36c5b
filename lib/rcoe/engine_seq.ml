(* The sequential execution engine: everything runs on the calling
   domain, and [Engine_par] is required to be bit-for-bit equivalent to
   it. Two loops:

   - Replicated runs on the [Blocks] backend that are untraced and
     window-eligible ([Config.parallel_ineligibility] = [None], so
     exception barriers are on) run [Window]'s execution windows, the
     same jobs [Engine_par] runs on worker domains, here inline in rid
     order. Each job bursts its replica through [Blockc.run] from one
     core event to the next.
   - Every other run is the reference per-cycle loop: each simulated
     cycle ticks the machine, steps each replica in rid order and
     advances the round state machine ([Sched.classic_cycle]); on
     [Blocks], unreplicated stretches take the quiescent burst of
     [Sched.burst_cycles]. [Interp] runs are the oracle both other paths
     are held identical to. *)

open Sched

(* One step of a run that started at cycle [start]: a quiescent burst on
   the block-compiled backend when one is possible (see
   [Sched.burst_cycles] for the bit-identity argument), else one classic
   cycle. The burst budget never crosses [max_cycles], and with a [stop]
   callback it also never crosses a 128-cycle poll boundary, so the poll
   fires at exactly the cycles per-cycle stepping would poll at. Returns
   false when [stop] asks the run to end. *)
let step ?stop t ~start ~max_cycles =
  let budget = max_cycles - (now t - start) in
  let budget =
    match stop with
    | Some _ -> min budget (128 - (now t land 127))
    | None -> budget
  in
  (match burst_cycles t ~budget with
  | Some _ -> ()
  | None -> classic_cycle t);
  match stop with Some f when now t land 127 = 0 -> not (f t) | _ -> true

(* Whether this run takes the windowed loop. [Interp] stays on the
   per-cycle loop as the oracle the windowed loop is held equal to, and
   a traced run would step per cycle inside its windows anyway; Base and
   replay-detection runs burst through [Sched.burst_cycles] instead. *)
let windowed t =
  let cfg = config t in
  let net_ok =
    match eligibility t with Some e -> Eligibility.eligible e | None -> false
  in
  cfg.Config.mode <> Config.Base
  && cfg.Config.exec_backend = Config.Blocks
  && cfg.Config.trace = None
  && Config.parallel_ineligibility ~net_ok cfg = None

(* Run every open window's jobs inline, in rid order. *)
let run_jobs t ~s ~cap =
  Array.iter
    (fun r -> match r.wctx with Some w -> Window.job t r w ~s ~cap | None -> ())
    t.replicas

let run ?stop t ~max_cycles =
  if windowed t then Window.run ~jobs:(run_jobs t) ?stop t ~max_cycles
  else begin
    let start = now t in
    let continue_ = ref true in
    while
      !continue_ && t.halt = None
      && (not (finished t))
      && now t - start < max_cycles
    do
      continue_ := step ?stop t ~start ~max_cycles
    done
  end
