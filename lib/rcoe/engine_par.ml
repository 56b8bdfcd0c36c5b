(* The domain-parallel execution engine of a replicated run.

   Hands [Window.run] jobs that run each window on one [Domain.t] per
   replica: the jobs of a window step their replicas concurrently while
   the orchestrating domain waits at a {!Rcoe_util.Barrier}, then the
   orchestrator retires the window and runs every cycle that cannot be
   windowed itself. All worker domains are quiescent between windows by
   construction, so round logic, voting, checkpoints and fault handling
   never race with replica execution. The result is bit-for-bit the
   result of a [Sequential] run, which runs the same jobs inline
   ([Window.inline_jobs]) or steps per cycle; see [Window] for the
   determinism argument. Unreplicated runs never come here: they open
   no windows. *)

open Sched
module Barrier = Rcoe_util.Barrier

type job = { j_start : int; j_cap : int }

(* One mailbox per worker domain. Written by the orchestrator strictly
   before the window-start barrier crossing and read by the worker
   strictly after it (and vice versa for results at the window-end
   crossing), so the barrier's mutex provides the happens-before edge —
   no atomics needed. *)
type slot = {
  mutable job : job option;
  mutable quit : bool;
  mutable werror : exn option;
}

let rec worker_loop t barrier slot r =
  Barrier.await barrier;
  (* window start *)
  if not slot.quit then begin
    (match slot.job with
    | Some { j_start; j_cap } -> (
        match r.wctx with
        | Some w -> (
            try Window.job t r w ~s:j_start ~cap:j_cap
            with e -> slot.werror <- Some e)
        | None -> slot.werror <- Some (Failure "worker job without wctx"))
    | None -> ());
    Barrier.await barrier;
    (* window end *)
    worker_loop t barrier slot r
  end

let run ?stop t ~max_cycles =
  let n = Array.length t.replicas in
  let barrier = Barrier.create (n + 1) in
  let slots =
    Array.init n (fun _ -> { job = None; quit = false; werror = None })
  in
  let doms =
    Array.init n (fun rid ->
        Domain.spawn (fun () ->
            worker_loop t barrier slots.(rid) t.replicas.(rid)))
  in
  let shutdown () =
    Array.iter
      (fun sl ->
        sl.quit <- true;
        sl.job <- None)
      slots;
    Barrier.await barrier;
    Array.iter Domain.join doms
  in
  (* Publish one job per replica with a window context, release the
     workers, and wait until all of them parked or reached the cap. *)
  let jobs ~s ~cap =
    Array.iteri
      (fun i r ->
        slots.(i).job <-
          (match r.wctx with
          | Some _ -> Some { j_start = s; j_cap = cap }
          | None -> None))
      t.replicas;
    Barrier.await barrier;
    (* workers run *)
    Barrier.await barrier;
    Array.iter
      (fun sl -> match sl.werror with Some e -> raise e | None -> ())
      slots
  in
  try
    Window.run ~jobs ?stop t ~max_cycles;
    shutdown ()
  with e ->
    (try shutdown () with _ -> ());
    raise e
