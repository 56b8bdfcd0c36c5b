(** Generic experiment runner: build a system for a configuration, run a
    program to completion, and report elapsed simulated time. *)

type result = {
  cycles : int;  (** Simulated cycles until the program finished. *)
  finished : bool;
  halted : Rcoe_core.System.halt_reason option;
  sys : Rcoe_core.System.t;
}

val run_program :
  config:Rcoe_core.Config.t ->
  program:Rcoe_isa.Program.t ->
  ?max_cycles:int ->
  unit ->
  result
(** Runs until completion, halt, or [max_cycles] (default 200M). *)

val config_for :
  mode:Rcoe_core.Config.mode ->
  nreplicas:int ->
  arch:Rcoe_machine.Arch.t ->
  ?sync_level:Rcoe_core.Config.sync_level ->
  ?vm:bool ->
  ?with_net:bool ->
  ?seed:int ->
  ?tick_interval:int ->
  ?user_words:int ->
  unit ->
  Rcoe_core.Config.t

val standard_configs :
  arch:Rcoe_machine.Arch.t -> (string * Rcoe_core.Config.t) list
(** Base, LC-D, LC-T, CC-D, CC-T — the paper's five columns. *)

val overhead : base_cycles:int -> cycles:int -> float
(** Slowdown factor relative to the baseline. *)
