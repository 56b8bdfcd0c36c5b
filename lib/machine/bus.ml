(* Every field is a float, so OCaml stores the record flat and the
   mutators below allocate nothing. *)
type t = { bus_rate : float; max_credit : float; mutable credit : float }

let create ~rate = { bus_rate = rate; max_credit = 4.0; credit = 4.0 }

let tick t = t.credit <- Float.min t.max_credit (t.credit +. t.bus_rate)

let try_acquire t n =
  let need = float_of_int n in
  if t.credit >= need then begin
    t.credit <- t.credit -. need;
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

type state = float

let state t = t.credit
let set_state t s = t.credit <- s
