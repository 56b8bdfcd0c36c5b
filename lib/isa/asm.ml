type item = Branch_count.item = I of Instr.t | L of string

type t = {
  unit_name : string;
  mutable items : item list; (* reversed *)
  mutable blocks : (string * int array) list; (* reversed; label, init *)
  mutable fresh : int;
}

let create unit_name = { unit_name; items = []; blocks = []; fresh = 0 }

let emit t i = t.items <- I i :: t.items

let label t l =
  let bound = function L l' -> String.equal l l' | I _ -> false in
  if List.exists bound t.items then
    invalid_arg (Printf.sprintf "Asm.label: %s already bound" l);
  t.items <- L l :: t.items

let new_label t hint =
  t.fresh <- t.fresh + 1;
  Printf.sprintf ".%s_%d" hint t.fresh

let data t l init =
  if List.mem_assoc l t.blocks then
    invalid_arg (Printf.sprintf "Asm.data: duplicate block %s" l);
  t.blocks <- (l, init) :: t.blocks

let data_floats t l fs = data t l (Array.map Program.float_to_word fs)

let space t l n = data t l (Array.make n 0)

(* Shorthand emitters. *)

let nop t = emit t Instr.Nop
let mov t rd rs = emit t (Instr.Mov (rd, Instr.Reg rs))
let movi t rd n = emit t (Instr.Mov (rd, Instr.Imm n))
let la t rd l = emit t (Instr.La (rd, l))

let alu3 op t rd ra rb = emit t (Instr.Alu (op, rd, ra, Instr.Reg rb))
let alui op t rd ra n = emit t (Instr.Alu (op, rd, ra, Instr.Imm n))

let add t = alu3 Instr.Add t
let addi t = alui Instr.Add t
let sub t = alu3 Instr.Sub t
let subi t = alui Instr.Sub t
let mul t = alu3 Instr.Mul t
let muli t = alui Instr.Mul t
let div t = alu3 Instr.Div t
let divi t = alui Instr.Div t
let rem t = alu3 Instr.Rem t
let remi t = alui Instr.Rem t
let and_ t = alu3 Instr.And t
let andi t = alui Instr.And t
let or_ t = alu3 Instr.Or t
let ori t = alui Instr.Or t
let xor t = alu3 Instr.Xor t
let xori t = alui Instr.Xor t
let not_ t rd rs = emit t (Instr.Not (rd, rs))
let shli t = alui Instr.Shl t
let shri t = alui Instr.Shr t
let shl t = alu3 Instr.Shl t
let shr t = alu3 Instr.Shr t

let ld t rd rs off = emit t (Instr.Ld (rd, rs, off))
let st t rbase rs off = emit t (Instr.St (rbase, rs, off))
let push t r = emit t (Instr.Push r)
let pop t r = emit t (Instr.Pop r)
let b t c r o l = emit t (Instr.B (c, r, o, Instr.Lbl l))
let jmp t l = emit t (Instr.Jmp (Instr.Lbl l))
let jal t l = emit t (Instr.Jal (Instr.Lbl l))
let ret t = emit t Instr.Ret
let syscall t n = emit t (Instr.Syscall n)
let halt t = emit t Instr.Halt

(* Structured control flow. *)

let negate = function
  | Instr.Eq -> Instr.Ne
  | Instr.Ne -> Instr.Eq
  | Instr.Lt -> Instr.Ge
  | Instr.Le -> Instr.Gt
  | Instr.Gt -> Instr.Le
  | Instr.Ge -> Instr.Lt

let while_ t c r o body =
  let top = new_label t "while_top" and exit = new_label t "while_exit" in
  label t top;
  emit t (Instr.B (negate c, r, o, Instr.Lbl exit));
  body ();
  jmp t top;
  label t exit

let for_up t r ~start ~stop body =
  movi t r start;
  let top = new_label t "for_top" and exit = new_label t "for_exit" in
  label t top;
  emit t (Instr.B (Instr.Ge, r, stop, Instr.Lbl exit));
  body ();
  addi t r r 1;
  jmp t top;
  label t exit

let if_ t c r o ?else_ then_ =
  let lelse = new_label t "if_else" and lend = new_label t "if_end" in
  emit t (Instr.B (negate c, r, o, Instr.Lbl lelse));
  then_ ();
  (match else_ with
  | None -> label t lelse
  | Some e ->
      jmp t lend;
      label t lelse;
      e ());
  label t lend

(* Assembly. *)

let assemble ?entry ?(branch_count = false) ?(verify = false) t =
  let items = List.rev t.items in
  let items = if branch_count then Branch_count.insert items else items in
  (* Lay out data blocks. *)
  let blocks = List.rev t.blocks in
  let _, data =
    List.fold_left
      (fun (addr, acc) (l, init) ->
        ( addr + Array.length init,
          { Program.block_label = l; block_addr = addr; block_init = init }
          :: acc ))
      (Program.data_base, []) blocks
  in
  let data = List.rev data in
  let data_words =
    List.fold_left (fun n (_, init) -> n + Array.length init) 0 blocks
  in
  (* Assign code addresses; labels bind to the next instruction. *)
  let code_labels = Hashtbl.create 64 in
  let naddr =
    List.fold_left
      (fun addr -> function
        | I _ -> addr + 1
        | L l ->
            if Hashtbl.mem code_labels l then
              invalid_arg (Printf.sprintf "Asm.assemble: duplicate label %s" l);
            Hashtbl.replace code_labels l addr;
            addr)
      0 items
  in
  let resolve_target instr = function
    | Instr.Abs a ->
        if a < 0 || a >= naddr then
          invalid_arg
            (Printf.sprintf "Asm.assemble: target %d out of range in %s" a
               (Instr.to_string instr));
        Instr.Abs a
    | Instr.Lbl l -> (
        match Hashtbl.find_opt code_labels l with
        | Some a -> Instr.Abs a
        | None ->
            invalid_arg (Printf.sprintf "Asm.assemble: undefined label %s" l))
  in
  let data_block_addr l =
    match
      List.find_opt (fun b -> String.equal b.Program.block_label l) data
    with
    | Some b -> b.Program.block_addr
    | None ->
        invalid_arg (Printf.sprintf "Asm.assemble: undefined data block %s" l)
  in
  let resolve instr =
    match instr with
    | Instr.La (rd, l) -> Instr.Mov (rd, Instr.Imm (data_block_addr l))
    | _ -> (
        match Instr.target_of instr with
        | None -> instr
        | Some tgt -> Instr.with_target instr (resolve_target instr tgt))
  in
  let code =
    items
    |> List.filter_map (function I i -> Some (resolve i) | L _ -> None)
    |> Array.of_list
  in
  let entry_addr =
    match entry with
    | None -> 0
    | Some l -> (
        match Hashtbl.find_opt code_labels l with
        | Some a -> a
        | None ->
            invalid_arg (Printf.sprintf "Asm.assemble: undefined entry %s" l))
  in
  let program =
    {
      Program.name = t.unit_name;
      code;
      data;
      data_words;
      entry = entry_addr;
      code_labels = Hashtbl.fold (fun l a acc -> (l, a) :: acc) code_labels [];
      branch_counted = branch_count;
    }
  in
  if branch_count then begin
    match Lint.reserved_register_violations program with
    | [] -> ()
    | (addr, instr) :: _ ->
        invalid_arg
          (Printf.sprintf
             "Asm.assemble: %s uses reserved branch-counter register at %d: %s"
             t.unit_name addr (Instr.to_string instr))
  end;
  if verify then begin
    let report = Lint.analyze program in
    if report.Lint.verdict = Lint.Rejected then begin
      let detail =
        match
          List.find_opt
            (fun f -> f.Lint.f_severity = Lint.Error)
            report.Lint.findings
        with
        | Some f -> (
            match f.Lint.f_addr with
            | Some a -> Printf.sprintf "%s (at %d)" f.Lint.f_message a
            | None -> f.Lint.f_message)
        | None -> "rejected by lint"
      in
      invalid_arg
        (Printf.sprintf "Asm.assemble: %s rejected by the static analyzer: %s"
           t.unit_name detail)
    end
  end;
  program
