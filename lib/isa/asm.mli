(** Assembler eDSL.

    Workloads are written against this interface: emit instructions with
    symbolic label targets, declare data blocks, and use the structured
    control-flow helpers; [assemble] resolves labels and produces a
    {!Program.t}.

    Passing [~branch_count:true] to {!assemble} runs the
    compiler-assisted branch-counting pass (see {!Branch_count}), which
    models the paper's GCC plugin for Armv7-A: a [Cntinc] is inserted
    immediately before every branch, call, and return. *)

type t

val create : string -> t
(** [create name] is an empty assembly unit. *)

(* --- emission ------------------------------------------------------- *)

val emit : t -> Instr.t -> unit

val label : t -> string -> unit
(** Bind a label at the current position. Raises [Invalid_argument] if
    the label is already bound. *)

val new_label : t -> string -> string
(** [new_label t hint] is a fresh label name (not yet bound). *)

(* --- data ----------------------------------------------------------- *)

val data : t -> string -> int array -> unit
(** Declare an initialised data block. Raises [Invalid_argument] on a
    duplicate block label. *)

val data_floats : t -> string -> float array -> unit
(** Initialised block of single-precision float words. *)

val space : t -> string -> int -> unit
(** [space t lbl n]: BSS block of [n] zero words. *)

(* --- shorthand emitters --------------------------------------------- *)

val nop : t -> unit
val mov : t -> Reg.t -> Reg.t -> unit
val movi : t -> Reg.t -> int -> unit
val la : t -> Reg.t -> string -> unit
val add : t -> Reg.t -> Reg.t -> Reg.t -> unit
val addi : t -> Reg.t -> Reg.t -> int -> unit
val sub : t -> Reg.t -> Reg.t -> Reg.t -> unit
val subi : t -> Reg.t -> Reg.t -> int -> unit
val mul : t -> Reg.t -> Reg.t -> Reg.t -> unit
val muli : t -> Reg.t -> Reg.t -> int -> unit
val div : t -> Reg.t -> Reg.t -> Reg.t -> unit
val divi : t -> Reg.t -> Reg.t -> int -> unit
val rem : t -> Reg.t -> Reg.t -> Reg.t -> unit
val remi : t -> Reg.t -> Reg.t -> int -> unit
val and_ : t -> Reg.t -> Reg.t -> Reg.t -> unit
val andi : t -> Reg.t -> Reg.t -> int -> unit
val or_ : t -> Reg.t -> Reg.t -> Reg.t -> unit
val ori : t -> Reg.t -> Reg.t -> int -> unit
val xor : t -> Reg.t -> Reg.t -> Reg.t -> unit
val xori : t -> Reg.t -> Reg.t -> int -> unit
val not_ : t -> Reg.t -> Reg.t -> unit
val shli : t -> Reg.t -> Reg.t -> int -> unit
val shri : t -> Reg.t -> Reg.t -> int -> unit
val shl : t -> Reg.t -> Reg.t -> Reg.t -> unit
val shr : t -> Reg.t -> Reg.t -> Reg.t -> unit
val ld : t -> Reg.t -> Reg.t -> int -> unit
val st : t -> Reg.t -> Reg.t -> int -> unit
val push : t -> Reg.t -> unit
val pop : t -> Reg.t -> unit
val b : t -> Instr.cond -> Reg.t -> Instr.operand -> string -> unit
val jmp : t -> string -> unit
val jal : t -> string -> unit
val ret : t -> unit
val syscall : t -> int -> unit
val halt : t -> unit

(* --- structured control flow ---------------------------------------- *)

val while_ : t -> Instr.cond -> Reg.t -> Instr.operand -> (unit -> unit) -> unit
(** [while_ t c r o body]: top-tested loop running while [r c o] holds. *)

val for_up : t -> Reg.t -> start:int -> stop:Instr.operand -> (unit -> unit) -> unit
(** [for_up t r ~start ~stop body]: [r] from [start] while [r < stop],
    incrementing by 1. The body must preserve [r]. *)

val if_ : t -> Instr.cond -> Reg.t -> Instr.operand -> ?else_:(unit -> unit) ->
  (unit -> unit) -> unit

(* --- assembly ------------------------------------------------------- *)

val assemble :
  ?entry:string -> ?branch_count:bool -> ?verify:bool -> t -> Program.t
(** Resolve labels and produce the program. [entry] defaults to address
    0. Raises [Invalid_argument] on undefined labels or (with
    [~branch_count:true]) if the program uses the reserved branch-counter
    register (see {!Lint.reserved_register_violations}).

    [~verify:true] additionally runs the full static analyzer
    ({!Lint.analyze}) and raises [Invalid_argument] if the program is
    {!Lint.Rejected} — a reachable out-of-range or symbolic branch
    target, a fallthrough off the end of the code, an unbalanced stack,
    or (for branch-counted programs) a broken branch-count invariant. *)
