(* Block-compiled execution backend.

   The interpreter ([Core.step]) re-decodes every instruction on every
   cycle: a 30-way match on the instruction, a 16-way match per register
   operand ([Reg.index]), an operand-kind match, a target-kind match.
   This module pays those costs once per code page instead: the first
   time execution enters a page, every instruction on it is compiled
   into a pre-decoded closure with register indices, immediates, branch
   targets and the ALU/condition function resolved at decode time, and
   the page's basic blocks are discovered and summarised (length and
   pre-summed minimum cycle charge per block). After that, a cycle is
   one indirect call through a flat closure array indexed by ip.

   The contract with the oracle is cycle identity, not mere semantic
   equivalence: [run] is the [Core.step] shell line for line, looped
   (halted / stall / breakpoint / bad-ip ordering, the bp_suppress
   re-arm, bus-wait accounting and its trace flush, and the jitter RNG
   draw on exactly the cycles the interpreter draws it), and every
   compiled closure either reproduces the corresponding [Core.exec] arm
   exactly or — for the rare stateful instructions (rep-strings,
   exclusives, kernel atomics) — simply calls [Core.exec] itself.
   Replicated execution, signatures, votes, breakpoints, checkpoints and
   traces therefore cannot tell the backends apart; test/
   test_exec_blocks.ml and the `bench exec` baseline rows enforce this
   bit for bit.

   An executed cycle allocates nothing, and its shell, outside the
   compiled closure, calls no function of another module: the lane tick
   is a field write to the lane's owed-tick count ([Bus.t]'s [owed]),
   the jitter draw is [Rng.below]'s SplitMix64 step written out on the
   core's own generator state against a threshold cached at creation,
   and the bus-stall flush is called only when a stall run ends. Loads
   and stores still go through [Core.load]/[Core.store]'s
   allocation-free RAM walk, whose [Bus.try_acquire] applies the owed
   ticks. The float closures do their own arithmetic and comparisons.
   The dev build compiles every module with -opaque, so nothing is
   inlined across modules: each call to another module is a real call,
   and a float or int64 passed to or returned from another module's
   function (or from any function value) is boxed. That is why the float
   arms match on the operation inside the closure instead of calling
   [Core]'s or a per-operation function, why the FP load and store
   convert through [Program.set_float_word]/[get_float_word], which take
   the register array, and why the draw is written out here rather than
   called (the interpreter calls [Rng.below], which does the same step in
   one body; the differential tests hold the two draw for draw).
   test/test_exec_blocks.ml pins zero minor words over a burst that runs
   every compiled instruction kind.

   Invalidation: the only mutable input of the compiler is the kernel's
   private code array. Translations, operand values and memory contents
   are read live at execution time, so data writes, dirty pages and
   page-table remaps need no hook; the cache is invalidated exactly when
   the code array changes — a code patch ([Kernel.patch_code]), a
   checkpoint restore that rewinds past one, or a re-integration adopt.
   Invalidation is page-granular ([invalidate_addr]) or whole-cache
   ([invalidate_all]). *)

open Rcoe_util

type backend = Interp | Blocks

(* Code pages use the same 256-entry granularity as [Mem]'s dirty
   tracking: one shared notion of "page" keeps the invalidation story
   uniform across data and code even though code lives outside [Mem]. *)
let page_shift = Mem.page_shift
let page_size = Mem.page_size

type dop = unit -> Core.event option

type block = { b_first : int; b_len : int; b_min_cycles : int }

type stats = {
  mutable pages_decoded : int;
  mutable blocks_compiled : int;
  mutable ops_compiled : int;
  mutable invalidations : int;
  mutable burst_cycles : int;
}

type t = {
  bcore : Core.t;
  benv : Core.env;  (** [ienv] whose device accessors raise [Device_access]. *)
  ienv : Core.env;  (** The kernel's environment, the interpreter's. *)
  ops : dop array;
  page_ok : bool array;
  page_blocks : block list array;
  jitter_on : bool;
  jitter_thr : int;  (** [Rng.threshold] of the profile's [jitter_p]. *)
  jitter_cycles : int;
  hw_count : bool;
  st : stats;
}

(* A device register access from compiled code, raised before the access
   and before any other effect of its instruction. Devices are machine
   state a run does not own: [run] moves the caller's clock to the cycle,
   lets the interpreter run the instruction, and ends the run, so the
   access sees the devices as per-cycle stepping would, and their next
   tick follows at once. *)
exception Device_access

let stats t = t.st
let blocks t = List.concat (Array.to_list t.page_blocks)

(* --- per-instruction compilation -------------------------------------- *)

let alu_fn (op : Rcoe_isa.Instr.alu) : int -> int -> int =
  let open Rcoe_isa.Instr in
  match op with
  | Add -> ( + )
  | Sub -> ( - )
  | Mul -> ( * )
  | Div ->
      fun a b ->
        if b = 0 then raise (Core.Take_fault Core.Division_by_zero) else a / b
  | Rem ->
      fun a b ->
        if b = 0 then raise (Core.Take_fault Core.Division_by_zero) else a mod b
  | And -> ( land )
  | Or -> ( lor )
  | Xor -> ( lxor )
  | Shl ->
      fun a b ->
        let s = b land 1023 in
        if s >= 63 then 0 else a lsl s
  | Shr ->
      fun a b ->
        let s = b land 1023 in
        if s >= 63 then 0 else a lsr s
  | Asr ->
      fun a b ->
        let s = b land 1023 in
        a asr min s 62

let cond_fn (c : Rcoe_isa.Instr.cond) : int -> int -> bool =
  let open Rcoe_isa.Instr in
  match c with
  | Eq -> ( = )
  | Ne -> ( <> )
  | Lt -> ( < )
  | Le -> ( <= )
  | Gt -> ( > )
  | Ge -> ( >= )

(* Compile the instruction at [ip] into a closure that reproduces the
   matching [Core.exec] arm exactly. The closure is only ever invoked
   with [bcore.ip = ip], so per-instruction constants (the return
   address of a [Jal], the retire target ip+1) fold at decode time. *)
let compile1 bc ip (instr : Rcoe_isa.Instr.t) : dop =
  let c = bc.bcore and env = bc.benv in
  let regs = c.Core.regs and fregs = c.Core.fregs in
  let ridx = Rcoe_isa.Reg.index and fidx = Rcoe_isa.Reg.findex in
  let sp = ridx Rcoe_isa.Reg.sp
  and lr = ridx Rcoe_isa.Reg.lr
  and cnt = ridx Rcoe_isa.Reg.branch_counter in
  let next = ip + 1 in
  let retire () =
    c.Core.ip <- next;
    c.Core.instret <- c.Core.instret + 1;
    c.Core.last_was_cntinc <- false
  in
  let jump target =
    c.Core.ip <- target;
    c.Core.instret <- c.Core.instret + 1;
    c.Core.last_was_cntinc <- false
  in
  let hw = bc.hw_count in
  let branch () = if hw then c.Core.hw_branches <- c.Core.hw_branches + 1 in
  (* Stateful or label-carrying instructions defer to the oracle's own
     arm: identical by construction, and never on the hot path. *)
  let oracle () = Core.exec c env instr in
  let open Rcoe_isa.Instr in
  match instr with
  | Nop ->
      fun () ->
        retire ();
        None
  | Halt ->
      let ev = Some Core.Ev_halt in
      fun () -> ev
  | Mov (rd, Imm i) ->
      let d = ridx rd in
      fun () ->
        regs.(d) <- i;
        retire ();
        None
  | Mov (rd, Reg rs) ->
      let d = ridx rd and s = ridx rs in
      fun () ->
        regs.(d) <- regs.(s);
        retire ();
        None
  | La _ -> oracle
  | Alu (Add, rd, rs, Imm i) ->
      let d = ridx rd and s = ridx rs in
      fun () ->
        regs.(d) <- regs.(s) + i;
        retire ();
        None
  | Alu (Add, rd, rs, Reg ro) ->
      let d = ridx rd and s = ridx rs and o = ridx ro in
      fun () ->
        regs.(d) <- regs.(s) + regs.(o);
        retire ();
        None
  | Alu (op, rd, rs, Imm i) ->
      let f = alu_fn op and d = ridx rd and s = ridx rs in
      fun () ->
        regs.(d) <- f regs.(s) i;
        retire ();
        None
  | Alu (op, rd, rs, Reg ro) ->
      let f = alu_fn op and d = ridx rd and s = ridx rs and o = ridx ro in
      fun () ->
        regs.(d) <- f regs.(s) regs.(o);
        retire ();
        None
  | Not (rd, rs) ->
      let d = ridx rd and s = ridx rs in
      fun () ->
        regs.(d) <- lnot regs.(s);
        retire ();
        None
  | Ld (rd, rs, off) ->
      let d = ridx rd and s = ridx rs in
      fun () ->
        regs.(d) <- Core.load c env (regs.(s) + off);
        retire ();
        None
  | St (rbase, rs, off) ->
      let b = ridx rbase and s = ridx rs in
      fun () ->
        Core.store c env (regs.(b) + off) regs.(s);
        retire ();
        None
  | Push r ->
      let s = ridx r in
      fun () ->
        let nsp = regs.(sp) - 1 in
        Core.store c env nsp regs.(s);
        regs.(sp) <- nsp;
        retire ();
        None
  | Pop r ->
      let d = ridx r in
      fun () ->
        let v = Core.load c env regs.(sp) in
        regs.(d) <- v;
        regs.(sp) <- regs.(sp) + 1;
        retire ();
        None
  | B (cnd, r, o, Abs a) -> (
      let test = cond_fn cnd and s = ridx r in
      match o with
      | Imm i ->
          fun () ->
            branch ();
            if test regs.(s) i then jump a else retire ();
            None
      | Reg ro ->
          let oi = ridx ro in
          fun () ->
            branch ();
            if test regs.(s) regs.(oi) then jump a else retire ();
            None)
  | B (_, _, _, Lbl _) -> oracle
  | Jmp (Abs a) ->
      fun () ->
        branch ();
        jump a;
        None
  | Jmp (Lbl _) -> oracle
  | Jal (Abs a) ->
      fun () ->
        branch ();
        regs.(lr) <- next;
        jump a;
        None
  | Jal (Lbl _) -> oracle
  | Jr r ->
      let s = ridx r in
      fun () ->
        branch ();
        jump regs.(s);
        None
  | Ret ->
      fun () ->
        branch ();
        jump regs.(lr);
        None
  | Syscall n ->
      let ev = Some (Core.Ev_syscall n) in
      fun () ->
        retire ();
        ev
  | Rep_movs ->
      (* Its write follows its read's bus and stall charges, so a device
         (or any non-RAM) destination is refused before the read. *)
      let dst = ridx Rcoe_isa.Reg.R0 and left = ridx Rcoe_isa.Reg.R2 in
      let ram a =
        Page_table.ram_addr env.Core.mem env.Core.pt ~vaddr:a ~write:true
      in
      fun () ->
        if regs.(left) > 0 && ram regs.(dst) < 0 then raise Device_access
        else oracle ()
  | Ldex _ | Stex _ | Atomic_add _ | Cas _ -> oracle
  | Cntinc ->
      fun () ->
        regs.(cnt) <- regs.(cnt) + 1;
        c.Core.ip <- next;
        c.Core.instret <- c.Core.instret + 1;
        c.Core.last_was_cntinc <- true;
        None
  (* The float arms match on the operation inside the closure: a float
     passed to or returned from a function value is boxed. *)
  | Falu (op, fd, fa, fb) ->
      let d = fidx fd and a = fidx fa and b = fidx fb in
      fun () ->
        let x = fregs.(a) and y = fregs.(b) in
        fregs.(d) <-
          (match op with
          | Fadd -> x +. y
          | Fsub -> x -. y
          | Fmul -> x *. y
          | Fdiv -> x /. y);
        retire ();
        None
  | Funop (op, fd, fs) ->
      let d = fidx fd and s = fidx fs in
      fun () ->
        let x = fregs.(s) in
        fregs.(d) <-
          (match op with
          | Fmov -> x
          | Fneg -> -.x
          | Fabs -> Float.abs x
          | Fsqrt -> sqrt x);
        retire ();
        None
  | Fldi (fd, x) ->
      let d = fidx fd in
      fun () ->
        fregs.(d) <- x;
        retire ();
        None
  | Fld (fd, rs, off) ->
      let d = fidx fd and s = ridx rs in
      fun () ->
        Rcoe_isa.Program.set_float_word fregs d
          (Core.load c env (regs.(s) + off));
        retire ();
        None
  | Fst (fs, rbase, off) ->
      let s = fidx fs and b = ridx rbase in
      fun () ->
        Core.store c env
          (regs.(b) + off)
          (Rcoe_isa.Program.get_float_word fregs s);
        retire ();
        None
  | Fb (cnd, fa, fb, Abs a) ->
      let x = fidx fa and y = fidx fb in
      fun () ->
        branch ();
        let x = fregs.(x) and y = fregs.(y) in
        if
          match cnd with
          | Eq -> x = y
          | Ne -> x <> y
          | Lt -> x < y
          | Le -> x <= y
          | Gt -> x > y
          | Ge -> x >= y
        then jump a
        else retire ();
        None
  | Fb (_, _, _, Lbl _) -> oracle
  | Itof (fd, rs) ->
      let d = fidx fd and s = ridx rs in
      fun () ->
        fregs.(d) <- float_of_int regs.(s);
        retire ();
        None
  | Ftoi (rd, fs) ->
      let d = ridx rd and s = fidx fs in
      fun () ->
        regs.(d) <- int_of_float fregs.(s);
        retire ();
        None

(* --- block discovery and page decode ----------------------------------- *)

let is_block_end (instr : Rcoe_isa.Instr.t) =
  let open Rcoe_isa.Instr in
  match instr with
  | B _ | Jmp _ | Jal _ | Jr _ | Ret | Fb _ | Syscall _ | Halt -> true
  | _ -> false

let min_cycles_of mem_extra (instr : Rcoe_isa.Instr.t) =
  let open Rcoe_isa.Instr in
  match instr with
  | Ld _ | St _ | Push _ | Pop _ | Fld _ | Fst _ | Ldex _ | Atomic_add _
  | Cas _ ->
      1 + mem_extra
  | _ -> 1

(* Decode every instruction on page [p] and summarise its basic blocks:
   a block runs from a leader to the next control transfer (or page
   edge), with its minimum cycle charge — one cycle per instruction
   plus the profile's guaranteed memory-stall cycles — pre-summed. *)
let decode_page bc p =
  let code = bc.benv.Core.code in
  let lo = p lsl page_shift in
  let hi = min (Array.length code) (lo + page_size) in
  let mem_extra = bc.benv.Core.profile.Arch.mem_extra_cycles in
  let blocks = ref [] in
  let b_first = ref lo and b_len = ref 0 and b_cycles = ref 0 in
  let close_block () =
    if !b_len > 0 then
      blocks :=
        { b_first = !b_first; b_len = !b_len; b_min_cycles = !b_cycles }
        :: !blocks
  in
  for ip = lo to hi - 1 do
    let instr = code.(ip) in
    bc.ops.(ip) <- compile1 bc ip instr;
    if !b_len = 0 then b_first := ip;
    incr b_len;
    b_cycles := !b_cycles + min_cycles_of mem_extra instr;
    if is_block_end instr then begin
      close_block ();
      b_len := 0;
      b_cycles := 0
    end
  done;
  close_block ();
  let bl = List.rev !blocks in
  bc.page_blocks.(p) <- bl;
  bc.page_ok.(p) <- true;
  bc.st.pages_decoded <- bc.st.pages_decoded + 1;
  bc.st.blocks_compiled <- bc.st.blocks_compiled + List.length bl;
  bc.st.ops_compiled <- bc.st.ops_compiled + (hi - lo)

(* --- construction and invalidation ------------------------------------- *)

let unreachable_dop : dop =
 fun () -> invalid_arg "Blockc: executed an undecoded slot"

let create core env =
  let len = Array.length env.Core.code in
  let npages = (len + page_size - 1) / page_size in
  {
    bcore = core;
    benv =
      {
        env with
        Core.dev_read = (fun _ _ -> raise Device_access);
        dev_write = (fun _ _ _ -> raise Device_access);
      };
    ienv = env;
    ops = Array.make len unreachable_dop;
    page_ok = Array.make npages false;
    page_blocks = Array.make npages [];
    jitter_on = env.Core.profile.Arch.jitter_p > 0.0;
    jitter_thr = Rng.threshold env.Core.profile.Arch.jitter_p;
    jitter_cycles = env.Core.profile.Arch.jitter_cycles;
    hw_count = env.Core.profile.Arch.count_mode = Arch.Hardware;
    st =
      {
        pages_decoded = 0;
        blocks_compiled = 0;
        ops_compiled = 0;
        invalidations = 0;
        burst_cycles = 0;
      };
  }

let invalidate_addr t addr =
  if addr >= 0 && addr < Array.length t.ops then begin
    let p = addr lsr page_shift in
    if t.page_ok.(p) then begin
      t.page_ok.(p) <- false;
      t.page_blocks.(p) <- [];
      t.st.invalidations <- t.st.invalidations + 1
    end
  end

let invalidate_all t =
  Array.iteri
    (fun p ok ->
      if ok then begin
        t.page_ok.(p) <- false;
        t.page_blocks.(p) <- [];
        t.st.invalidations <- t.st.invalidations + 1
      end)
    t.page_ok

(* --- stepping ----------------------------------------------------------- *)

(* [Core.flush_bus_wait] for a burst: move the caller's trace clock to
   burst cycle [k] first. The callers' guard, [bus_wait > 0], only skips
   calls that would be no-ops ([flush_bus_wait] itself starts with the
   same test); it stays at the call sites, so an executed cycle without
   a bus stall behind it makes no call. *)
let flush_at c env ~at k =
  at k;
  Core.flush_bus_wait c env

(* [Kernel.step] — a lane tick, then [Core.step]'s shell — up to [fuel]
   cycles in one tight loop, with the decode replaced by the closure
   dispatch: any observable difference from the oracle here is a bug,
   so compare side by side when touching either. Returns at the first
   event, or when the fuel runs out; the caller reads the consumed
   cycles off [Core.cycles]. Each cycle first ticks the core's own bus
   lane — [Bus.tick], written as a bump of the lane's owed count — so
   the next memory access's [Bus.try_acquire] applies exactly the ticks
   per-cycle stepping would have by then.

   A stalled cycle only ticks the lane and decrements [stall], so a run
   of [k] stalled cycles is taken in one step: the lane is owed [k] more
   ticks ([Bus.advance]) and [stall] drops by [k].

   A cycle allocates nothing unless it ends the run with an event.

   The trace events a run can emit are a breakpoint fire and the
   bus-stall span of [Core.flush_bus_wait], both stamped by the trace
   clock the caller owns. [at k] runs just before each with the cycle's
   offset [k] (1 = the run's first cycle), so the caller can move that
   clock to the cycle per-cycle stepping would stamp. *)
let run t ~fuel ~at =
  let c = t.bcore and env = t.benv in
  if c.Core.halted then Some Core.Ev_halt
  else begin
    let code_len = Array.length t.ops in
    let bus = env.Core.bus in
    let off = Rng.off in
    let consumed = ref 0 in
    let ev = ref None in
    let running = ref true in
    while !running && !consumed < fuel do
      if c.Core.stall > 0 then begin
        let k = Int.min c.Core.stall (fuel - !consumed) in
        bus.Bus.owed <- bus.Bus.owed +. float_of_int k;
        consumed := !consumed + k;
        c.Core.stall <- c.Core.stall - k
      end
      else begin
        bus.Bus.owed <- bus.Bus.owed +. 1.0;
        incr consumed;
        (* The resume flag re-arms once execution has left the
           breakpointed address. *)
        let fire =
          match c.Core.bp with
          | None -> false
          | Some bp ->
              if c.Core.bp_suppress && c.Core.ip <> bp then
                c.Core.bp_suppress <- false;
              bp = c.Core.ip && not c.Core.bp_suppress
        in
        let ip = c.Core.ip in
        if fire then begin
          at !consumed;
          Rcoe_obs.Trace.bp_fire env.Core.trace ~rid:c.Core.id;
          ev := Some Core.Ev_breakpoint;
          running := false
        end
        else if ip < 0 || ip >= code_len then begin
          ev := Some (Core.Ev_fault (Core.Bad_ip ip));
          running := false
        end
        else begin
          let page = ip lsr page_shift in
          if not (Array.unsafe_get t.page_ok page) then decode_page t page;
          match (Array.unsafe_get t.ops ip) () with
          | exception Core.Take_fault f ->
              c.Core.bus_wait <- 0;
              ev := Some (Core.Ev_fault f);
              running := false
          | exception Core.Bus_busy -> c.Core.bus_wait <- c.Core.bus_wait + 1
          | exception Device_access -> (
              at !consumed;
              running := false;
              match Core.exec_step c t.ienv with
              | Core.Ran -> ()
              | Core.Event e -> ev := Some e)
          | Some _ as e ->
              if c.Core.bus_wait > 0 then flush_at c env ~at !consumed;
              ev := e;
              running := false
          | None ->
              if c.Core.bus_wait > 0 then flush_at c env ~at !consumed;
              if t.jitter_on then begin
                (* [Rng.below c.jitter t.jitter_thr], written out. *)
                let st = (c.Core.jitter :> Bytes.t) in
                let s =
                  Int64.add (Bytes.get_int64_le st off) 0x9E3779B97F4A7C15L
                in
                Bytes.set_int64_le st off s;
                let z =
                  Int64.(
                    mul (logxor s (shift_right_logical s 30))
                      0xBF58476D1CE4E5B9L)
                in
                let z =
                  Int64.(
                    mul (logxor z (shift_right_logical z 27))
                      0x94D049BB133111EBL)
                in
                let z = Int64.(logxor z (shift_right_logical z 31)) in
                if Int64.to_int (Int64.shift_right_logical z 11) < t.jitter_thr
                then c.Core.stall <- c.Core.stall + t.jitter_cycles
              end
        end
      end
    done;
    c.Core.cycles <- c.Core.cycles + !consumed;
    !ev
  end
