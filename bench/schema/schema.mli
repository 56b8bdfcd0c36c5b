(** Declarative rows of the benchmark baseline ([BENCH_baseline.json]).

    A row is a key plus a list of fields. Each field carries its JSON
    path, its value, an optional table column and the rule
    [baseline-check] compares it by (exact, wall, speedup or info), so
    writing the file, printing a section's table and comparing against
    a committed file all walk the same list. *)

type value =
  | Int of int
  | Secs of float  (** a wall time *)
  | Ratio of float  (** shown as [2.00x] *)
  | Share of float  (** a fraction, shown as a signed percentage *)
  | Float of float  (** shown as [16.00] *)
  | Flag of bool
  | Text of string
  | Rows of t list  (** a sub-list, keyed by [label] *)

and field

and t
(** A row: [{"name": key, ...fields}]. *)

val row : string -> field list -> t
(** [row name fields] renders as ["name"] first, then the fields. *)

val sub : string -> field list -> t
(** A sub-list row (e.g. a workload's [configs]), keyed by ["label"]. *)

val exact : ?col:string -> string -> int -> field
(** [exact ~col path n]: a simulated quantity, where any difference
    fails; shown under column [col] when given. [path] is dotted:
    ["fault.cycles"] nests. *)

val wall : ?col:string -> string -> float -> field
(** A wall time in seconds; fails above committed x (1 + tolerance). *)

val speedup : ?col:string -> string -> float -> field
(** A ratio; fails below committed / (1 + tolerance). *)

val info : ?col:string -> string -> value -> field
(** Written and shown, never compared; a [Rows] sub-list's own fields
    are compared row by row. *)

val key : t -> string

val int : t -> string -> int
(** [int row path] reads an [Int] field; raises [Not_found]. *)

val num : t -> string -> float
(** Reads a [Secs], [Ratio], [Share] or [Float] field. *)

val flag : t -> string -> bool
val rows : t -> string -> t list

val to_json : t list -> Rcoe_obs.Json.t
(** A section: a JSON list with one object per row, dotted paths
    nested, keys in field order. *)

val print : string -> t list -> unit
(** [print section rows] prints a section's table: one line per row
    and per sub-row, one column per distinct [col], [section] heading
    the key column. *)

val check :
  tol:float -> string -> t list -> Rcoe_obs.Json.t option -> string list
(** [check ~tol section fresh committed] checks [fresh] rows against
    the committed section by each field's rule, matching rows by key in
    both directions: a fresh row missing from the file and a committed
    row no longer measured both fail. Returns one line per failure. *)

val reps : int

val repeat :
  what:string ->
  identity:('a -> 'b) ->
  (unit -> 'a) ->
  'a * (('a -> float) -> float)
(** [repeat ~what ~identity run] runs [run] [reps] times and fails
    unless [identity] agrees across the runs (the simulator is
    deterministic; check rather than assume). Returns the first run
    and the median over the runs of a wall-time projection. *)

val timed : (unit -> 'a) -> 'a * float
(** The result and its wall time in seconds. *)
