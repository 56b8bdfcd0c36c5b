open Rcoe_core

type result = {
  cycles : int;
  finished : bool;
  halted : System.halt_reason option;
  sys : System.t;
}

let run_program ~config ~program ?(max_cycles = 200_000_000) () =
  let sys = System.create ~config ~program in
  System.run sys ~max_cycles;
  {
    cycles = System.now sys;
    finished = System.finished sys;
    halted = System.halted sys;
    sys;
  }

let config_for ~mode ~nreplicas ~arch ?(sync_level = Config.Sync_args)
    ?(vm = false) ?(with_net = false) ?(seed = 1) ?(tick_interval = 50_000)
    ?(user_words = 192 * 1024) () =
  {
    Config.default with
    Config.mode;
    nreplicas;
    arch;
    sync_level;
    vm;
    with_net;
    seed;
    tick_interval;
    user_words;
    barrier_timeout = max 2_000_000 (tick_interval * 40);
  }

let standard_configs ~arch =
  [
    ("Base", config_for ~mode:Config.Base ~nreplicas:1 ~arch ());
    ("LC-D", config_for ~mode:Config.LC ~nreplicas:2 ~arch ());
    ("LC-T", config_for ~mode:Config.LC ~nreplicas:3 ~arch ());
    ("CC-D", config_for ~mode:Config.CC ~nreplicas:2 ~arch ());
    ("CC-T", config_for ~mode:Config.CC ~nreplicas:3 ~arch ());
  ]

let overhead ~base_cycles ~cycles =
  if base_cycles <= 0 then nan
  else float_of_int cycles /. float_of_int base_cycles
