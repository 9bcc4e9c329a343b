type next = Accept | Reject | Goto of string
type case = { values : int64 list; next : next }
type select = { on : Fieldref.t list; cases : case list; default : next }

type state = {
  id : string;
  header : string;
  offset : int;
  select : select option;
}

type t = {
  name : string;
  decls : Hdr.decl list;
  start : next;
  states : state list;
}

let vertex_key s = (s.header, s.offset)

let find_state t id =
  List.find_opt (fun s -> String.equal s.id id) t.states

let decl_for t header =
  List.find_opt (fun (d : Hdr.decl) -> String.equal d.Hdr.name header) t.decls

let successors s =
  match s.select with
  | None -> [ Accept ]
  | Some sel -> sel.default :: List.map (fun c -> c.next) sel.cases

let validate t =
  let ( let* ) = Result.bind in
  let declared (r : Fieldref.t) =
    match decl_for t r.Fieldref.hdr with
    | Some d -> Hdr.has_field d r.Fieldref.field
    | None -> false
  in
  let check_target from = function
    | Accept | Reject -> Ok ()
    | Goto id ->
        if find_state t id = None then
          Error (Printf.sprintf "parser %s: %s -> unknown state %s" t.name from id)
        else Ok ()
  in
  let* () = check_target "start" t.start in
  let* () =
    List.fold_left
      (fun acc s ->
        let* () = acc in
        let* () =
          match decl_for t s.header with
          | None ->
              Error
                (Printf.sprintf "parser %s: state %s extracts undeclared %s"
                   t.name s.id s.header)
          | Some _ -> Ok ()
        in
        let* () =
          let on = match s.select with None -> [] | Some sel -> sel.on in
          match List.find_opt (fun r -> not (declared r)) on with
          | None -> Ok ()
          | Some r ->
              Error
                (Printf.sprintf "parser %s: state %s selects on undeclared field %s"
                   t.name s.id (Fieldref.to_string r))
        in
        let size = Hdr.byte_size (Option.get (decl_for t s.header)) in
        List.fold_left
          (fun acc nxt ->
            let* () = acc in
            let* () = check_target s.id nxt in
            match nxt with
            | Goto id ->
                let succ = Option.get (find_state t id) in
                if succ.offset <> s.offset + size then
                  Error
                    (Printf.sprintf
                       "parser %s: %s(@%d,+%d) -> %s expected offset %d, has %d"
                       t.name s.id s.offset size id (s.offset + size) succ.offset)
                else Ok ()
            | Accept | Reject -> Ok ())
          (Ok ()) (successors s))
      (Ok ()) t.states
  in
  (* Acyclicity: offsets strictly increase along every Goto edge (checked
     above), so cycles are impossible; still verify ids are unique. *)
  let ids = List.map (fun s -> s.id) t.states in
  let sorted = List.sort_uniq String.compare ids in
  if List.length sorted <> List.length ids then
    Error (Printf.sprintf "parser %s: duplicate state ids" t.name)
  else Ok ()

let parse t bytes phv =
  List.iter (fun d -> Phv.add_decl phv d) t.decls;
  let rec step nxt off =
    match nxt with
    | Reject -> Error (Printf.sprintf "parser %s: packet rejected" t.name)
    | Accept -> Ok off
    | Goto id -> (
        match find_state t id with
        | None -> Error (Printf.sprintf "parser %s: missing state %s" t.name id)
        | Some s -> (
            let decl = Option.get (decl_for t s.header) in
            let size = Hdr.byte_size decl in
            if off + size > Bytes.length bytes then
              Error
                (Printf.sprintf "parser %s: truncated %s at offset %d" t.name
                   s.header off)
            else begin
              Phv.extract_at phv decl
                (Phv.valid_cell (Phv.layout phv) s.header)
                bytes ~bit_off:(8 * off);
              let off = off + size in
              match s.select with
              | None -> Ok off
              | Some sel -> (
                  let values =
                    List.map (fun r -> Bitval.to_int64 (Phv.get phv r)) sel.on
                  in
                  let case =
                    List.find_opt
                      (fun c ->
                        List.length c.values = List.length values
                        && List.for_all2 Int64.equal c.values values)
                      sel.cases
                  in
                  match case with
                  | Some c -> step c.next off
                  | None -> step sel.default off)
            end))
  in
  step t.start 0

(* --- Compiled form: state ids resolved to direct references, header
   sizes, select fields and case values precomputed against a PHV
   layout, so the per-packet walk does no list searching and extracts
   straight into int cells through the header's wire codec. The
   interpretive {!parse} above, with its per-field bit loop, stays as
   the reference-mode parser. --- *)

type cnext =
  | C_accept
  | C_reject
  | C_error of string
  | C_state of cstate

and cstate = {
  c_header : string;
  c_decl : Hdr.decl;
  c_vc : int;  (* validity cell in the compiled layout *)
  c_size : int;
  c_select : cselect option;
}

and cselect = {
  c_cells : int array;  (* the select fields' cells *)
  c_replay : bool;
      (* every select field belongs to the state's own header and is
         not its self-checksum: a {!replay} may read it off the PHV *)
  c_cases : (int array * cnext) array;
  c_default : cnext;
}

type compiled = { c_name : string; c_layout : Phv.layout; c_start : cnext }

let compile ~layout t =
  let memo = Hashtbl.create 16 in
  let rec next = function
    | Accept -> C_accept
    | Reject -> C_reject
    | Goto id -> (
        match find_state t id with
        | None ->
            C_error (Printf.sprintf "parser %s: missing state %s" t.name id)
        | Some s -> C_state (state s))
  and state s =
    match Hashtbl.find_opt memo s.id with
    | Some c -> c
    | None ->
        let decl = Option.get (decl_for t s.header) in
        let c =
          {
            c_header = s.header;
            c_decl = decl;
            c_vc = Phv.valid_cell layout s.header;
            c_size = Hdr.byte_size decl;
            c_select =
              Option.map
                (fun sel ->
                  let own (r : Fieldref.t) =
                    String.equal r.Fieldref.hdr s.header
                    && not
                         (String.equal r.Fieldref.field "checksum"
                         && Hdr.self_checksum_byte decl <> None)
                  in
                  {
                    c_cells = Array.of_list (List.map (Phv.field_cell layout) sel.on);
                    c_replay = List.for_all own sel.on;
                    c_cases =
                      Array.of_list
                        (List.map
                           (fun c ->
                             (Array.of_list (List.map Hdr.cell_of_int64 c.values), next c.next))
                           sel.cases);
                    c_default = next sel.default;
                  })
                s.select;
          }
        in
        Hashtbl.add memo s.id c;
        c
  in
  { c_name = t.name; c_layout = layout; c_start = next t.start }

let rec case_matches sel phv cv i =
  i >= Array.length cv
  || (cv.(i) = Phv.cell phv sel.c_cells.(i) && case_matches sel phv cv (i + 1))

(* The successor a select picks: the first case whose values all
   match, else the default. *)
let rec select_next sel phv i =
  if i >= Array.length sel.c_cases then sel.c_default
  else
    let cv, nxt = sel.c_cases.(i) in
    if Array.length cv = Array.length sel.c_cells && case_matches sel phv cv 0 then nxt
    else select_next sel phv (i + 1)

let rec step c bytes phv n off =
  match n with
  | C_accept -> Ok off
  | C_reject -> Error (Printf.sprintf "parser %s: packet rejected" c.c_name)
  | C_error e -> Error e
  | C_state s -> (
      if off + s.c_size > Bytes.length bytes then
        Error
          (Printf.sprintf "parser %s: truncated %s at offset %d" c.c_name
             s.c_header off)
      else begin
        Phv.decode_at phv s.c_decl s.c_vc bytes ~off;
        let off = off + s.c_size in
        match s.c_select with
        | None -> Ok off
        | Some sel -> step c bytes phv (select_next sel phv 0) off
      end)

let run_compiled c bytes phv =
  if Phv.layout phv != c.c_layout then
    invalid_arg (Printf.sprintf "Parser_graph.run_compiled %s: PHV of another layout" c.c_name);
  step c bytes phv c.c_start 0

(* --- Replay: the compiled walk driven by a PHV's own cells instead of
   bytes. The frame a deparser would emit from the PHV holds the valid
   headers of [order], in order, each written from its own cells; a
   parse of that frame that extracts exactly those headers, in that
   order, reads every header back from the bytes its cells wrote (cell
   values stay within their fields' widths). So the walk can be
   predicted from the cells alone, provided each select reads only the
   header just extracted (c_replay): its parsed value is surely its
   cell's, while a header the walk has not extracted would read the
   template's zero and a self-checksum the recomputed sum. --- *)

(* Position in [order] of the first emitted header at or after [k]. *)
let rec next_emitted phv order k =
  if k < Array.length order && Phv.cell phv order.(k) <> 1 then
    next_emitted phv order (k + 1)
  else k

let rec replay_from phv order n k =
  match n with
  | C_accept -> next_emitted phv order k = Array.length order
  | C_reject | C_error _ -> false
  | C_state s -> (
      let k = next_emitted phv order k in
      k < Array.length order
      && order.(k) = s.c_vc
      &&
      match s.c_select with
      | None -> replay_from phv order C_accept (k + 1)
      | Some sel ->
          sel.c_replay && replay_from phv order (select_next sel phv 0) (k + 1))

let replay c phv ~order =
  Phv.layout phv == c.c_layout && replay_from phv order c.c_start 0

(* The deparser's checksum engine: recompute an IPv4-style header
   checksum in place over the just-emitted bytes. The PHV's checksum
   field is stale whenever an action rewrote any other field (NAT, LB,
   TTL decrement) — hardware deparsers fix this with a checksum unit,
   and so do we. Recomputing over an unmodified valid header reproduces
   its checksum bit-for-bit. *)
let fix_checksum out ~off ~csum_byte ~size =
  Netpkt.Bytes_util.set_uint16 out (off + csum_byte) 0;
  Netpkt.Bytes_util.set_uint16 out (off + csum_byte)
    (Netpkt.Bytes_util.internet_checksum out ~off ~len:size)

let deparse ~order phv ~payload =
  let lay = Phv.layout phv in
  let valid =
    List.filter_map
      (fun name ->
        if Phv.is_valid phv name then Some (Phv.decl_in lay name) else None)
      order
  in
  let total =
    List.fold_left (fun acc d -> acc + Hdr.byte_size d) 0 valid
    + Bytes.length payload
  in
  let out = Bytes.make total '\000' in
  let off = ref 0 in
  List.iter
    (fun (d : Hdr.decl) ->
      Phv.emit_at phv d (Phv.valid_cell lay d.Hdr.name) out ~bit_off:(8 * !off);
      let size = Hdr.byte_size d in
      (match Hdr.self_checksum_byte d with
      | Some csum_byte -> fix_checksum out ~off:!off ~csum_byte ~size
      | None -> ());
      off := !off + size)
    valid;
  Bytes.blit payload 0 out !off (Bytes.length payload);
  out

let reachable t =
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  let rec walk = function
    | Accept | Reject -> ()
    | Goto id ->
        if not (Hashtbl.mem seen id) then begin
          Hashtbl.add seen id ();
          order := id :: !order;
          match find_state t id with
          | Some s -> List.iter walk (successors s)
          | None -> ()
        end
  in
  walk t.start;
  List.rev !order

let pp_next ppf = function
  | Accept -> Format.pp_print_string ppf "accept"
  | Reject -> Format.pp_print_string ppf "reject"
  | Goto id -> Format.pp_print_string ppf id

let pp ppf t =
  Format.fprintf ppf "@[<v 2>parser %s (start -> %a) {@," t.name pp_next t.start;
  List.iter
    (fun s ->
      Format.fprintf ppf "@[<v 2>state %s: extract %s @@%d" s.id s.header s.offset;
      (match s.select with
      | None -> Format.fprintf ppf " -> accept"
      | Some sel ->
          Format.fprintf ppf " select(%s):"
            (String.concat ", " (List.map Fieldref.to_string sel.on));
          List.iter
            (fun c ->
              Format.fprintf ppf "@,%s -> %a"
                (String.concat "," (List.map Int64.to_string c.values))
                pp_next c.next)
            sel.cases;
          Format.fprintf ppf "@,default -> %a" pp_next sel.default);
      Format.fprintf ppf "@]@,")
    t.states;
  Format.fprintf ppf "}@]"
