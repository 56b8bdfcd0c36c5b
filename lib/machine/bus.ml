(* Every field is a float, so OCaml stores the record flat and the
   mutators below allocate nothing; [consumed] counts whole words,
   which a float holds exactly. *)
type t = {
  bus_rate : float;
  max_credit : float;
  mutable credit : float;
  mutable offered : float;
  mutable consumed : float;
}

let create ~rate =
  {
    bus_rate = rate;
    max_credit = 4.0;
    credit = 4.0;
    offered = 0.0;
    consumed = 0.0;
  }

let tick t =
  t.offered <- t.offered +. t.bus_rate;
  t.credit <- Float.min t.max_credit (t.credit +. t.bus_rate)

let try_acquire t n =
  let need = float_of_int n in
  if t.credit >= need then begin
    t.credit <- t.credit -. need;
    t.consumed <- t.consumed +. need;
    true
  end
  else false

let advance t ~cycles =
  (* Exactly [cycles] applications of [tick]: floating-point addition
     is not associative, so no closed form is bit-identical to the
     per-cycle refills. *)
  for _ = 1 to cycles do
    tick t
  done

let rate t = t.bus_rate

type state = t

let state t = { t with credit = t.credit }

let set_state t s =
  t.credit <- s.credit;
  t.offered <- s.offered;
  t.consumed <- s.consumed

let utilisation t = if t.offered <= 0.0 then 0.0 else t.consumed /. t.offered
