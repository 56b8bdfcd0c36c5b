(* Documentation hygiene linter, wired as `dune build @doc-lint`.

   odoc is not a build dependency of this project (see README
   "Documentation"), so this self-contained pass checks the properties
   a `dune build @doc` run would: every `{!reference}` in a doc comment
   must name a module that exists in the tree (a library wrapper like
   [Rcoe_obs] or a compilation unit like [Config]), references must be
   non-empty, braces inside doc comments must balance, and every
   interface file must carry at least one odoc comment — a bare `.mli`
   is a public surface with no documentation at all. A code reference
   `{!M.x}` or `[M.x]` in any comment, where [M] is a compilation unit
   of the tree, must also name something defined in [M]'s `.ml` or
   `.mli`: a value, type, record field, constructor or submodule; so
   must an unqualified lowercase `{!x}` in the unit whose file holds
   it. Exits non-zero listing every offence as file:line. *)

let wrappers =
  [
    "Rcoe_util"; "Rcoe_obs"; "Rcoe_checksum"; "Rcoe_isa"; "Rcoe_machine";
    "Rcoe_kernel"; "Rcoe_core"; "Rcoe_faults"; "Rcoe_workloads";
    "Rcoe_harness";
  ]

(* Stdlib modules it is reasonable for doc comments to reference. *)
let stdlib = [ "Domain"; "List"; "Array"; "Printf"; "Sys"; "Stdlib" ]

let rec walk dir f =
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then walk path f else f path)
    (Sys.readdir dir)

let errors = ref 0

let err path line fmt =
  Printf.ksprintf
    (fun s ->
      incr errors;
      Printf.eprintf "%s:%d: %s\n" path line s)
    fmt

(* A reference payload without its kind annotation, `kind:` or odoc's
   `kind-` (e.g. {!type:...}, {!val:...}, {!field-...}), or a leading
   quiet-reference `:`. No OCaml name holds either character. *)
let strip_kind payload =
  let after i = String.sub payload (i + 1) (String.length payload - i - 1) in
  match (String.index_opt payload ':', String.rindex_opt payload '-') with
  | Some i, _ | None, Some i -> after i
  | None, None -> payload

(* Its first path component. *)
let root_of payload =
  let payload = strip_kind payload in
  match String.index_opt payload '.' with
  | Some i -> String.sub payload 0 i
  | None -> payload

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

let is_upper c = c >= 'A' && c <= 'Z'

(* [mask.(i)] is true when byte [i] lies inside a comment. String and
   character literals outside comments are skipped, so a "(*" in code
   opens nothing. *)
let comment_mask content =
  let n = String.length content in
  let mask = Array.make n false in
  let depth = ref 0 and i = ref 0 in
  while !i < n do
    let c = content.[!i] in
    let next = if !i + 1 < n then content.[!i + 1] else ' ' in
    if c = '(' && next = '*' then begin
      incr depth;
      mask.(!i) <- true;
      mask.(!i + 1) <- true;
      i := !i + 2
    end
    else if c = '*' && next = ')' && !depth > 0 then begin
      decr depth;
      mask.(!i) <- true;
      mask.(!i + 1) <- true;
      i := !i + 2
    end
    else if !depth > 0 then begin
      mask.(!i) <- true;
      incr i
    end
    else if c = '"' then begin
      incr i;
      while !i < n && content.[!i] <> '"' do
        if content.[!i] = '\\' then incr i;
        incr i
      done;
      incr i
    end
    else if c = '\'' && !i + 2 < n && content.[!i + 2] = '\'' then i := !i + 3
    else if c = '\'' && next = '\\' then begin
      i := !i + 2;
      while !i < n && content.[!i] <> '\'' do incr i done;
      incr i
    end
    else incr i
  done;
  mask

(* The names a source file defines, read off its tokens outside
   comments and literals: the name after [let], [rec], [and], [val],
   [external], [type] (past any type parameters), [module] and
   [exception]; a capitalized name after [|] or [=] that is not a
   module path (a constructor); and a name between [{], [;] or
   [mutable] and [:] (a record field). Over-approximates on purpose: a
   stray definition only hides a stale reference, never reports a good
   one. *)
let definitions content =
  let mask = comment_mask content in
  let n = String.length content in
  let toks = ref [] and i = ref 0 in
  while !i < n do
    let c = content.[!i] in
    if mask.(!i) || c = ' ' || c = '\n' || c = '\t' || c = '\r' then incr i
    else if is_ident_char c then begin
      let j = ref !i in
      while !j < n && is_ident_char content.[!j] && not mask.(!j) do
        incr j
      done;
      toks := String.sub content !i (!j - !i) :: !toks;
      i := !j
    end
    else begin
      toks := String.make 1 c :: !toks;
      incr i
    end
  done;
  let toks = Array.of_list (List.rev !toks) in
  let len = Array.length toks in
  let tok k = if k >= 0 && k < len then toks.(k) else "" in
  let defs = Hashtbl.create 64 in
  let keywords =
    [ "let"; "rec"; "and"; "val"; "external"; "type"; "module"; "exception";
      "nonrec" ]
  in
  for k = 0 to len - 1 do
    let t = toks.(k) in
    if List.mem (tok (k - 1)) keywords && not (List.mem t keywords) then begin
      (* Type parameters: ['a], [('a, 'b)]. *)
      let k' = ref k in
      if tok (k - 1) = "type" || tok (k - 1) = "and" then begin
        if (tok !k').[0] = '\'' then incr k'
        else if tok !k' = "(" then begin
          while !k' < len && tok !k' <> ")" do incr k' done;
          incr k'
        end
      end;
      Hashtbl.replace defs (tok !k') ()
    end;
    if
      (tok (k - 1) = "|" || tok (k - 1) = "=")
      && t <> "" && is_upper t.[0] && tok (k + 1) <> "."
    then Hashtbl.replace defs t ();
    if
      List.mem (tok (k - 1)) [ "{"; ";"; "mutable" ]
      && tok (k + 1) = ":"
    then Hashtbl.replace defs t ()
  done;
  defs

(* Compilation unit name -> the files that define it. *)
let unit_files : (string, string list) Hashtbl.t = Hashtbl.create 64

let unit_defs : (string, (string, unit) Hashtbl.t) Hashtbl.t =
  Hashtbl.create 64

let read_file path =
  let ic = open_in_bin path in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  content

let defines unit_ name =
  let defs =
    match Hashtbl.find_opt unit_defs unit_ with
    | Some d -> d
    | None ->
        let d = Hashtbl.create 64 in
        List.iter
          (fun path ->
            Hashtbl.iter
              (fun k () -> Hashtbl.replace d k ())
              (definitions (read_file path)))
          (Hashtbl.find unit_files unit_);
        Hashtbl.replace unit_defs unit_ d;
        d
  in
  Hashtbl.mem defs name

let unit_of_path path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* [ref_] is a dotted reference [M.x...], or an unqualified [x] of the
   unit whose file [path] holds it; report it when that unit is a
   compilation unit of the tree that does not define [x]. *)
let check_member path line_no ref_ =
  match String.split_on_char '.' ref_ with
  | m :: x :: _ when Hashtbl.mem unit_files m && x <> "" ->
      if not (defines m x) then
        err path line_no
          "%s: %s defines no %s (stale or misqualified reference?)" ref_ m x
  | [ x ] when x <> "" && not (is_upper x.[0]) ->
      let m = unit_of_path path in
      if not (defines m x) then
        err path line_no "{!%s}: %s defines no %s (stale reference?)" ref_ m x
  | _ -> ()

(* Every [[M.x...]] inside a comment of [content]. *)
let check_code_refs path content =
  let mask = comment_mask content in
  let n = String.length content in
  let line = ref 1 in
  for i = 0 to n - 1 do
    if content.[i] = '\n' then incr line
    else if
      content.[i] = '[' && mask.(i) && i + 1 < n && is_upper content.[i + 1]
    then begin
      let j = ref (i + 1) in
      while !j < n && (is_ident_char content.[!j] || content.[!j] = '.') do
        incr j
      done;
      let body = String.sub content (i + 1) (!j - i - 1) in
      if !j < n && content.[!j] = ']' && String.contains body '.' then
        check_member path !line body
    end
  done

let check_refs ~known path line_no line =
  let n = String.length line in
  let i = ref 0 in
  while !i + 1 < n do
    if line.[!i] = '{' && line.[!i + 1] = '!' then begin
      let stop = try String.index_from line (!i + 2) '}' with Not_found -> -1 in
      if stop < 0 then
        err path line_no "unterminated {!reference} in doc comment"
      else begin
        let payload = String.sub line (!i + 2) (stop - !i - 2) in
        if String.trim payload = "" then
          err path line_no "empty {!} reference"
        else begin
          (* Only qualified paths get their root checked: a bare
             capitalized name may be a constructor or exception in
             scope, which odoc resolves without a module prefix. *)
          let trimmed = String.trim payload in
          let root = root_of trimmed in
          if
            String.contains trimmed '.'
            && root <> ""
            && root.[0] >= 'A'
            && root.[0] <= 'Z'
            && not (List.mem root known)
          then
            err path line_no
              "{!%s}: no module named %s in the tree (typo, or a \
               renamed module?)"
              payload root
          else check_member path line_no (strip_kind trimmed)
        end;
        i := stop
      end
    end;
    incr i
  done

(* Brace balance over the whole file's doc comments. Code braces
   (records, [{ ... }] inline code) do not occur unbalanced in legal
   OCaml interfaces, so a file-level imbalance inside comments is a
   broken odoc markup construct. *)
let check_comment_braces path content =
  let mask = comment_mask content in
  let depth = ref 0 and line = ref 1 in
  let open_line = ref 0 in
  String.iteri
    (fun i c ->
      if c = '\n' then incr line;
      if mask.(i) then
        if c = '{' then begin
          if !depth = 0 then open_line := !line;
          incr depth
        end
        else if c = '}' then
          if !depth = 0 then
            err path !line "unmatched '}' in doc comment"
          else decr depth)
    content;
  if !depth <> 0 then
    err path !open_line "unclosed '{' in doc comment"

(* Interfaces are the documentation surface: an `.mli` with no odoc
   opener anywhere ships an undocumented public API. Implementation
   files are exempt — plain commentary there is a style choice. *)
let check_mli_documented path content =
  let n = String.length content in
  let has_doc = ref false in
  for i = 0 to n - 3 do
    if content.[i] = '(' && content.[i + 1] = '*' && content.[i + 2] = '*'
    then has_doc := true
  done;
  if not !has_doc then
    err path 1 "interface has no odoc comment (no `(**` anywhere)"

let check_file ~known path =
  let content = read_file path in
  if Filename.check_suffix path ".mli" then check_mli_documented path content;
  check_comment_braces path content;
  check_code_refs path content;
  let line_no = ref 0 in
  String.split_on_char '\n' content
  |> List.iter (fun line ->
         incr line_no;
         check_refs ~known path !line_no line)

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "lib" in
  let units = ref [] in
  walk root (fun path ->
      if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
      then begin
        let unit_ = unit_of_path path in
        if not (List.mem unit_ !units) then units := unit_ :: !units;
        Hashtbl.replace unit_files unit_
          (path :: Option.value ~default:[] (Hashtbl.find_opt unit_files unit_))
      end);
  let known = wrappers @ stdlib @ !units in
  let files = ref [] in
  walk root (fun path ->
      if Filename.check_suffix path ".mli" || Filename.check_suffix path ".ml"
      then files := path :: !files);
  List.iter (check_file ~known) (List.sort compare !files);
  if !errors > 0 then begin
    Printf.eprintf "doc-lint: %d problem(s)\n" !errors;
    exit 1
  end;
  Printf.printf "doc-lint: ok (%d compilation units scanned)\n"
    (List.length !files)
