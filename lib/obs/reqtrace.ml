(* Stall classes chargeable against an open request. Compute is never
   stored: it is defined as the end-to-end remainder at receipt, which
   is what makes the attribution sum exact by construction. *)
type cls = Sync | Vote | Ckpt | Roll | Ingress | Replay

type record = {
  id : int;
  t_inject : int;
  mutable t_rx : int;
  mutable t_consume : int;
  mutable t_tx : int;
  mutable t_done : int;
  mutable t_drop : int;  (* cycle of the last ingress drop of this id *)
  mutable status : int;
  mutable a_sync : int;
  mutable a_vote : int;
  mutable a_ckpt : int;
  mutable a_roll : int;
  mutable a_ingress : int;
  mutable a_replay : int;
  mutable a_compute : int;
}

type t = {
  keep : int;
  open_reqs : (int, record) Hashtbl.t;
  mutable open_hwm : int;
  mutable n_completed : int;
  mutable retained : record list; (* newest first, trimmed to [keep] *)
  mutable n_retained : int;
  h_e2e : Hdr.t;
  h_queue : Hdr.t;
  h_ring : Hdr.t;
  h_service : Hdr.t;
  h_drain : Hdr.t;
  h_detect : Hdr.t;
  h_stall : Hdr.t;
  h_ingress : Hdr.t;
  mutable ag_sync : int;
  mutable ag_vote : int;
  mutable ag_ckpt : int;
  mutable ag_roll : int;
  mutable ag_ingress : int;
  mutable ag_replay : int;
  mutable ag_compute : int;
  mutable ag_total : int;
  (* Trace-absorption state. *)
  mutable seen_events : int;
  removed : (int, unit) Hashtbl.t; (* downgraded replica ids *)
  mutable open_span : (cls * int) option; (* followed replica's live span *)
  mutable last_inj : int; (* cycle of last unconsumed injection; -1 none *)
}

let create ?(keep = 4096) () =
  {
    keep = max 1 keep;
    open_reqs = Hashtbl.create 64;
    open_hwm = 0;
    n_completed = 0;
    retained = [];
    n_retained = 0;
    h_e2e = Hdr.create ();
    h_queue = Hdr.create ();
    h_ring = Hdr.create ();
    h_service = Hdr.create ();
    h_drain = Hdr.create ();
    h_detect = Hdr.create ();
    h_stall = Hdr.create ();
    h_ingress = Hdr.create ();
    ag_sync = 0;
    ag_vote = 0;
    ag_ckpt = 0;
    ag_roll = 0;
    ag_ingress = 0;
    ag_replay = 0;
    ag_compute = 0;
    ag_total = 0;
    seen_events = 0;
    removed = Hashtbl.create 4;
    open_span = None;
    last_inj = -1;
  }

let inject t ~id ~now =
  if not (Hashtbl.mem t.open_reqs id) then begin
    Hashtbl.replace t.open_reqs id
      {
        id;
        t_inject = now;
        t_rx = -1;
        t_consume = -1;
        t_tx = -1;
        t_done = -1;
        t_drop = -1;
        status = -1;
        a_sync = 0;
        a_vote = 0;
        a_ckpt = 0;
        a_roll = 0;
        a_ingress = 0;
        a_replay = 0;
        a_compute = 0;
      };
    let n = Hashtbl.length t.open_reqs in
    if n > t.open_hwm then t.open_hwm <- n
  end

let stamp t ~id ~now f =
  match Hashtbl.find_opt t.open_reqs id with
  | Some r -> f r now
  | None -> ()

let rx t ~id ~now = stamp t ~id ~now (fun r now -> if r.t_rx < 0 then r.t_rx <- now)
let consume t ~id ~now =
  stamp t ~id ~now (fun r now -> if r.t_consume < 0 then r.t_consume <- now)
let tx t ~id ~now = stamp t ~id ~now (fun r now -> if r.t_tx < 0 then r.t_tx <- now)

(* Charge [cycles] of class [c] to one open request. *)
let charge r c cycles =
  if cycles > 0 then
    match c with
    | Sync -> r.a_sync <- r.a_sync + cycles
    | Vote -> r.a_vote <- r.a_vote + cycles
    | Ckpt -> r.a_ckpt <- r.a_ckpt + cycles
    | Roll -> r.a_roll <- r.a_roll + cycles
    | Ingress -> r.a_ingress <- r.a_ingress + cycles
    | Replay -> r.a_replay <- r.a_replay + cycles

(* A closed stall span [start, stop): each open request is charged its
   overlap with the span (from its inject time on). *)
let apply_span t c start stop =
  if stop > start then
    Hashtbl.iter
      (fun _ r ->
        let s = if r.t_inject > start then r.t_inject else start in
        charge r c (stop - s))
      t.open_reqs

(* A forward-stall event of [cost] cycles at its emission point
   (checkpoint capture, rollback restore): every open request is about
   to sit through it in full. Receipt-time clamping bounds any
   overcharge for requests that complete inside the span. *)
let apply_cost t c cost =
  if cost > 0 then Hashtbl.iter (fun _ r -> charge r c cost) t.open_reqs

let record_detection t ts =
  if t.last_inj >= 0 && ts >= t.last_inj then begin
    let lat = ts - t.last_inj in
    Hashtbl.iter (fun _ _r -> Hdr.record t.h_detect lat) t.open_reqs;
    t.last_inj <- -1
  end

let followed t =
  let rec go i = if Hashtbl.mem t.removed i then go (i + 1) else i in
  go 0

let class_of_phase = function
  | Trace.Gather_wait | Trace.Chase | Trace.Catchup | Trace.Pmu_catchup ->
      Some Sync
  | Trace.Vote_wait | Trace.Rendezvous -> Some Vote
  | Trace.Ipi_wait -> None (* replica still executing user code *)

let close_span t stop =
  match t.open_span with
  | Some (c, start) ->
      t.open_span <- None;
      apply_span t c start stop
  | None -> ()

let absorb_event t { Trace.ts; rid; body } =
  match body with
  | Trace.Phase_begin ph when rid = followed t -> (
      match class_of_phase ph with
      | Some c ->
          close_span t ts;
          t.open_span <- Some (c, ts)
      | None -> ())
  | Trace.Phase_end ph when rid = followed t -> (
      match class_of_phase ph with Some _ -> close_span t ts | None -> ())
  | Trace.Checkpoint { cost; _ } -> apply_cost t Ckpt cost
  | Trace.Rollback { cost; _ } ->
      record_detection t ts;
      apply_cost t Roll cost
  | Trace.Downgrade { rid = down; cost } ->
      record_detection t ts;
      if down = followed t then close_span t ts;
      Hashtbl.replace t.removed down ();
      apply_cost t Roll cost
  | Trace.Ingress_drop { id; _ } -> (
      (* The drop is itself a detection (the injected corruption became
         observable at consume), and opens a redelivery stall for the
         dropped request: from the drop until the retransmitted frame is
         consumed. The id comes from the corrupt frame, so it may be
         unparseable (-1) or itself damaged — then no request matches
         and only the detection is recorded. *)
      record_detection t ts;
      match Hashtbl.find_opt t.open_reqs id with
      | Some r -> r.t_drop <- ts
      | None -> ())
  | Trace.Replay_verdict { chunk_end; ok; _ } ->
      (* A mismatch verdict closes a detection-lag window: the fault was
         live on the primary from the chunk's end until the checker
         caught it. Requests open during that window were served (or
         queued) under undetected-fault shadow and are about to be
         replayed past the rollback — charge them the lag span. Clean
         verdicts cost the open requests nothing (checkers run on host
         domains, off the simulated clock). *)
      if not ok then begin
        record_detection t ts;
        apply_span t Replay chunk_end ts
      end
  | Trace.Injection _ -> t.last_inj <- ts
  | _ -> ()

let absorb t tr =
  let total = Trace.total tr in
  if total > t.seen_events then begin
    let evs = Trace.events_since tr t.seen_events in
    t.seen_events <- total;
    List.iter (absorb_event t) evs
  end

let receipt t ~id ~now ~status =
  match Hashtbl.find_opt t.open_reqs id with
  | None -> ()
  | Some r ->
      Hashtbl.remove t.open_reqs id;
      r.t_done <- now;
      r.status <- status;
      let total = max 0 (now - r.t_inject) in
      Hdr.record t.h_e2e total;
      if r.t_rx >= 0 then Hdr.record t.h_queue (max 0 (r.t_rx - r.t_inject));
      if r.t_rx >= 0 && r.t_consume >= 0 then
        Hdr.record t.h_ring (max 0 (r.t_consume - r.t_rx));
      if r.t_consume >= 0 && r.t_tx >= 0 then
        Hdr.record t.h_service (max 0 (r.t_tx - r.t_consume));
      if r.t_tx >= 0 then Hdr.record t.h_drain (max 0 (now - r.t_tx));
      (* An ingress drop stalls its request from the drop until the
         retransmitted frame is finally consumed (or, failing that,
         until receipt): the redelivery wait the checksum path trades
         rollback for. *)
      if r.t_drop >= 0 then begin
        let stop = if r.t_consume > r.t_drop then r.t_consume else now in
        charge r Ingress (stop - r.t_drop)
      end;
      (* Clamp stall charges into the request's own window, then define
         compute as the remainder: the six classes sum to [total]
         exactly. *)
      let s =
        r.a_sync + r.a_vote + r.a_ckpt + r.a_roll + r.a_ingress + r.a_replay
      in
      if s > total && s > 0 then begin
        r.a_sync <- r.a_sync * total / s;
        r.a_vote <- r.a_vote * total / s;
        r.a_ckpt <- r.a_ckpt * total / s;
        r.a_roll <- r.a_roll * total / s;
        r.a_ingress <- r.a_ingress * total / s;
        r.a_replay <- r.a_replay * total / s
      end;
      r.a_compute <-
        total
        - (r.a_sync + r.a_vote + r.a_ckpt + r.a_roll + r.a_ingress + r.a_replay);
      if r.a_roll > 0 then Hdr.record t.h_stall r.a_roll;
      if r.a_ingress > 0 then Hdr.record t.h_ingress r.a_ingress;
      t.ag_sync <- t.ag_sync + r.a_sync;
      t.ag_vote <- t.ag_vote + r.a_vote;
      t.ag_ckpt <- t.ag_ckpt + r.a_ckpt;
      t.ag_roll <- t.ag_roll + r.a_roll;
      t.ag_ingress <- t.ag_ingress + r.a_ingress;
      t.ag_replay <- t.ag_replay + r.a_replay;
      t.ag_compute <- t.ag_compute + r.a_compute;
      t.ag_total <- t.ag_total + total;
      t.n_completed <- t.n_completed + 1;
      t.retained <- r :: t.retained;
      t.n_retained <- t.n_retained + 1;
      if t.n_retained > 2 * t.keep then begin
        t.retained <- List.filteri (fun i _ -> i < t.keep) t.retained;
        t.n_retained <- t.keep
      end

let open_requests t = Hashtbl.length t.open_reqs
let open_hwm t = t.open_hwm
let completed t = t.n_completed
let e2e t = t.h_e2e

let attribution t =
  [
    ("compute", t.ag_compute);
    ("sync_wait", t.ag_sync);
    ("vote", t.ag_vote);
    ("checkpoint", t.ag_ckpt);
    ("rollback_stall", t.ag_roll);
    ("ingress_stall", t.ag_ingress);
    ("replay_lag", t.ag_replay);
    ("total_cycles", t.ag_total);
  ]

let detect_hdr t = t.h_detect
let stall_hdr t = t.h_stall
let ingress_hdr t = t.h_ingress

let to_json t =
  Json.Obj
    [
      ("completed", Json.Int t.n_completed);
      ("open", Json.Int (open_requests t));
      ("open_hwm", Json.Int t.open_hwm);
      ("e2e", Hdr.to_json t.h_e2e);
      ( "phases",
        Json.Obj
          [
            ("queue", Hdr.to_json t.h_queue);
            ("ring", Hdr.to_json t.h_ring);
            ("service", Hdr.to_json t.h_service);
            ("drain", Hdr.to_json t.h_drain);
          ] );
      ( "attribution",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (attribution t)) );
      ("detect", Hdr.to_json t.h_detect);
      ("rollback_stall", Hdr.to_json t.h_stall);
      ("ingress_stall", Hdr.to_json t.h_ingress);
    ]

let pid_requests = 2
let n_lanes = 16

let chrome_events t =
  let meta =
    Json.Obj
      [
        ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Int pid_requests);
        ("tid", Json.Int 0);
        ("args", Json.Obj [ ("name", Json.String "requests") ]);
      ]
  in
  let lanes =
    List.init n_lanes (fun l ->
        Json.Obj
          [
            ("name", Json.String "thread_name");
            ("ph", Json.String "M");
            ("pid", Json.Int pid_requests);
            ("tid", Json.Int l);
            ("args", Json.Obj [ ("name", Json.String (Printf.sprintf "req lane %d" l)) ]);
          ])
  in
  let reqs =
    List.rev_map
      (fun r ->
        Json.Obj
          [
            ("name", Json.String (Printf.sprintf "req %d" r.id));
            ("ph", Json.String "X");
            ("pid", Json.Int pid_requests);
            ("tid", Json.Int (r.id mod n_lanes));
            ("ts", Json.Int r.t_inject);
            ("dur", Json.Int (max 0 (r.t_done - r.t_inject)));
            ( "args",
              Json.Obj
                [
                  ("status", Json.Int r.status);
                  ("queue", Json.Int (max 0 (r.t_rx - r.t_inject)));
                  ("ring", Json.Int (max 0 (r.t_consume - r.t_rx)));
                  ("service", Json.Int (max 0 (r.t_tx - r.t_consume)));
                  ("drain", Json.Int (max 0 (r.t_done - r.t_tx)));
                  ("compute", Json.Int r.a_compute);
                  ("sync_wait", Json.Int r.a_sync);
                  ("vote", Json.Int r.a_vote);
                  ("checkpoint", Json.Int r.a_ckpt);
                  ("rollback_stall", Json.Int r.a_roll);
                  ("ingress_stall", Json.Int r.a_ingress);
                  ("replay_lag", Json.Int r.a_replay);
                ] );
          ])
      t.retained
  in
  (meta :: lanes) @ reqs
