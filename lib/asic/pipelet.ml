type kind = Ingress | Egress
type id = { pipeline : int; kind : kind }

(* By concatenation, not [Format]: a chip replica renders its four
   names on every sharded batch. *)
let id_name id =
  (match id.kind with Ingress -> "ingress" | Egress -> "egress")
  ^ " " ^ string_of_int id.pipeline

let pp_id ppf id = Format.pp_print_string ppf (id_name id)

let equal_id a b = a.pipeline = b.pipeline && a.kind = b.kind

let compare_id a b =
  let c = compare a.pipeline b.pipeline in
  if c <> 0 then c
  else compare (a.kind = Egress) (b.kind = Egress)

let all_ids spec =
  List.concat_map
    (fun pipe -> [ { pipeline = pipe; kind = Ingress }; { pipeline = pipe; kind = Egress } ])
    (List.init spec.Spec.n_pipelines Fun.id)

(* One header of the deparse order resolved against the layout, so
   [deparse_fast] and [adopt] walk cells instead of hashing names. *)
type emit = {
  decl : P4ir.Hdr.decl;
  vc : int;  (* validity cell *)
  ncells : int;  (* validity cell plus one per field *)
  size : int;  (* bytes on the wire *)
  csum_byte : int;  (* self-checksum byte offset in the header; -1 = none *)
  csum_cell : int;  (* the self-checksum field's cell; -1 = none *)
}

type t = {
  id : id;
  (* [id] rendered once, at load: what journey hops and telemetry
     counters name the pipelet by. *)
  name : string;
  program : P4ir.Program.t;
  (* The PHV layout of this pipelet: standard metadata first, then the
     parser's declarations — on a chip whose pipelets all parse the
     same declarations, one layout shared by all of them. Parser,
     control, tables and deparser are all compiled against it. *)
  layout : P4ir.Phv.layout;
  (* Mutable so telemetry can swap in a control recompiled with label
     counters (and back): instrumentation is selected at compile time,
     not branched per packet. *)
  mutable compiled : P4ir.Control.compiled;
  mutable label_counters : (string -> int ref) option;
  pcompiled : P4ir.Parser_graph.compiled;
  (* Pristine PHV of [layout] with standard metadata valid; [parse]
     copies its cells instead of re-declaring per packet. *)
  template : P4ir.Phv.t;
  (* The emit plan, one entry per deparse-order header: total, since
     [Program.validate] admits only parsed headers there. *)
  demit : emit array;
  (* The plan's validity cells: the [order] of a parse-graph replay. *)
  order : int array;
  (* (validity cell, cell count) of every layout header outside the
     deparse order, standard metadata included: [adopt] restores these
     from the template. *)
  unemitted : (int * int) array;
  (* Where [adopt] re-emits a self-checksummed header to recompute its
     checksum; per pipelet, so per chip and per domain. *)
  scratch : Bytes.t;
  stage_alloc : (string * int) list;
}

(* Residual capacity of one MAU stage during packing. *)
type residual = {
  mutable table_ids : int;
  mutable srams : int;
  mutable tcams : int;
  mutable crossbar_bytes : int;
  mutable vliws : int;
  mutable hash_bits : int;
}

let residual_of_caps (c : P4ir.Resources.stage_caps) =
  {
    table_ids = c.P4ir.Resources.cap_table_ids;
    srams = c.P4ir.Resources.cap_srams;
    tcams = c.P4ir.Resources.cap_tcams;
    crossbar_bytes = c.P4ir.Resources.cap_crossbar_bytes;
    vliws = c.P4ir.Resources.cap_vliws;
    hash_bits = c.P4ir.Resources.cap_hash_bits;
  }

let demand_fits (r : residual) (d : P4ir.Resources.t) =
  r.table_ids >= d.P4ir.Resources.table_ids
  && r.srams >= d.P4ir.Resources.srams
  && r.tcams >= d.P4ir.Resources.tcams
  && r.crossbar_bytes >= d.P4ir.Resources.crossbar_bytes
  && r.vliws >= d.P4ir.Resources.vliws
  && r.hash_bits >= d.P4ir.Resources.hash_bits

let consume (r : residual) (d : P4ir.Resources.t) =
  r.table_ids <- r.table_ids - d.P4ir.Resources.table_ids;
  r.srams <- r.srams - d.P4ir.Resources.srams;
  r.tcams <- r.tcams - d.P4ir.Resources.tcams;
  r.crossbar_bytes <- r.crossbar_bytes - d.P4ir.Resources.crossbar_bytes;
  r.vliws <- r.vliws - d.P4ir.Resources.vliws;
  r.hash_bits <- r.hash_bits - d.P4ir.Resources.hash_bits

let allocate_stages spec program =
  let env = P4ir.Program.table_env program in
  let nodes = P4ir.Deps.nodes_of_control env program.P4ir.Program.control in
  let n_stages = spec.Spec.stages_per_pipelet in
  let residuals =
    Array.init n_stages (fun _ -> residual_of_caps spec.Spec.stage_caps)
  in
  let placed = Hashtbl.create 16 in
  let result = ref [] in
  let place node =
    let lower_bound =
      List.fold_left
        (fun acc (prev, prev_stage) ->
          match
            List.find_opt
              (fun (n : P4ir.Deps.node) -> String.equal n.P4ir.Deps.table prev)
              nodes
          with
          | None -> acc
          | Some prev_node -> (
              match P4ir.Deps.dep_between prev_node node with
              | Some k -> max acc (prev_stage + P4ir.Deps.stage_gap k)
              | None -> acc))
        0 !result
    in
    let table = Option.get (env node.P4ir.Deps.table) in
    let demand = P4ir.Resources.of_table table in
    let rec try_stage s =
      if s >= n_stages then
        Error
          (Printf.sprintf
             "pipelet: table %s does not fit (needs stage >= %d of %d)"
             node.P4ir.Deps.table lower_bound n_stages)
      else if demand_fits residuals.(s) demand then begin
        consume residuals.(s) demand;
        Hashtbl.replace placed node.P4ir.Deps.table s;
        result := !result @ [ (node.P4ir.Deps.table, s) ];
        Ok ()
      end
      else try_stage (s + 1)
    in
    try_stage lower_bound
  in
  let rec loop = function
    | [] -> Ok !result
    | node :: rest -> (
        if Hashtbl.mem placed node.P4ir.Deps.table then loop rest
        else
          match place node with Ok () -> loop rest | Error e -> Error e)
  in
  loop nodes

(* The emit plan over [layout]: one entry per deparse-order header. *)
let emit_plan layout deparse_order =
  let emit name =
    let d = P4ir.Phv.decl_in layout name in
    let vc = P4ir.Phv.valid_cell layout name in
    let csum_byte, csum_cell =
      match P4ir.Hdr.self_checksum_byte d with
      | Some b -> (b, vc + 1 + P4ir.Hdr.field_index d "checksum")
      | None -> (-1, -1)
    in
    {
      decl = d;
      vc;
      ncells = 1 + P4ir.Hdr.n_fields d;
      size = P4ir.Hdr.byte_size d;
      csum_byte;
      csum_cell;
    }
  in
  Array.of_list (List.map emit deparse_order)

let load ?layout spec id program =
  match P4ir.Program.validate program with
  | Error e -> Error e
  | Ok () -> (
      let name = id_name id in
      (* Whole-pipelet gateway budget check; gateways live beside stages. *)
      let gw = P4ir.Control.gateway_count program.P4ir.Program.control in
      let gw_cap =
        spec.Spec.stages_per_pipelet
        * spec.Spec.stage_caps.P4ir.Resources.cap_gateways
      in
      if gw > gw_cap then
        Error
          (Printf.sprintf "pipelet %s: %d gateways exceed capacity %d" name gw
             gw_cap)
      else
        match allocate_stages spec program with
        | Error e -> Error e
        | Ok stage_alloc ->
            let parser = program.P4ir.Program.parser in
            let decls = parser.P4ir.Parser_graph.decls in
            let own = Stdmeta.layout decls in
            let layout = Option.value layout ~default:own in
            let template = P4ir.Phv.of_layout layout in
            if
              not
                (List.equal P4ir.Hdr.equal_decl (P4ir.Phv.decls template)
                   (P4ir.Phv.decls (P4ir.Phv.of_layout own)))
            then
              Error
                (Printf.sprintf
                   "pipelet %s: layout is not standard metadata then the \
                    parser's declarations"
                   name)
            else begin
              P4ir.Phv.set_valid template Stdmeta.name;
              let demit = emit_plan layout program.P4ir.Program.deparse_order in
              let order = Array.map (fun e -> e.vc) demit in
              let unemitted =
                P4ir.Phv.decls template
                |> List.filter_map (fun (d : P4ir.Hdr.decl) ->
                       let vc = P4ir.Phv.valid_cell layout d.P4ir.Hdr.name in
                       if Array.mem vc order then None
                       else Some (vc, 1 + P4ir.Hdr.n_fields d))
                |> Array.of_list
              in
              let widest = Array.fold_left (fun m e -> max m e.size) 0 demit in
              Ok
                {
                  id;
                  name;
                  program;
                  layout;
                  compiled = P4ir.Program.compile_control ~layout program;
                  label_counters = None;
                  pcompiled = P4ir.Parser_graph.compile ~layout parser;
                  template;
                  demit;
                  order;
                  unemitted;
                  scratch = Bytes.create widest;
                  stage_alloc;
                }
            end)

(* Everything [load] derives from a program — its validation, stage
   allocation, layout, template, emit plan and compiled parser — is the
   same for a {!P4ir.Program.copy} of it, so a replica pipelet reuses
   them. Only the control is compiled again: its closures own scratch
   and must apply the copy's tables. The adopt scratch is fresh. *)
let replicate t =
  let program = P4ir.Program.copy t.program in
  {
    t with
    program;
    compiled = P4ir.Program.compile_control ~layout:t.layout program;
    label_counters = None;
    scratch = Bytes.create (Bytes.length t.scratch);
  }

let id t = t.id
let name t = t.name
let program t = t.program
let tables t = t.program.P4ir.Program.tables
let stage_of_table t name = List.assoc_opt name t.stage_alloc

let stages_used t =
  List.fold_left (fun acc (_, s) -> max acc (s + 1)) 0 t.stage_alloc

let set_label_counters t counters =
  t.label_counters <- counters;
  t.compiled <-
    P4ir.Program.compile_control ?label_counters:counters ~layout:t.layout
      t.program

(* Compiled code runs on PHVs of the pipelet's layout only: one pointer
   check per call guards every cell index it resolved. *)
let check_layout t fn phv =
  if P4ir.Phv.layout phv != t.layout then
    invalid_arg (Printf.sprintf "Pipelet.%s %s: PHV of another layout" fn t.name)

let process ?trace t phv =
  check_layout t "process" phv;
  P4ir.Control.run_compiled ?trace t.compiled phv

let process_reference ?trace t phv =
  P4ir.Program.exec_control ?trace ?label_counters:t.label_counters t.program
    phv

let parse t frame =
  let phv = P4ir.Phv.copy t.template in
  match P4ir.Parser_graph.run_compiled t.pcompiled frame phv with
  | Error e -> Error e
  | Ok consumed ->
      let payload =
        Bytes.sub frame consumed (Bytes.length frame - consumed)
      in
      Ok (phv, payload)

(* Standard metadata leads here too, so the chip's fixed cells hold in
   both modes; the parser then adds its declarations one by one. *)
let parse_reference t frame =
  let phv = P4ir.Phv.create [ Stdmeta.decl ] in
  match P4ir.Parser_graph.parse t.program.P4ir.Program.parser frame phv with
  | Error e -> Error e
  | Ok consumed ->
      Stdmeta.attach phv;
      let payload =
        Bytes.sub frame consumed (Bytes.length frame - consumed)
      in
      Ok (phv, payload)

let deparse t phv ~payload =
  P4ir.Parser_graph.deparse
    ~order:t.program.P4ir.Program.deparse_order phv ~payload

(* Fast-mode serialization over the precomputed emit plan: two array
   walks over cells (size, then emit through each header's wire codec)
   with no name hashing. *)
let deparse_fast t phv ~payload =
  check_layout t "deparse_fast" phv;
  let plan = t.demit in
  let total = ref 0 in
  for k = 0 to Array.length plan - 1 do
    if P4ir.Phv.cell phv plan.(k).vc = 1 then total := !total + plan.(k).size
  done;
  let plen = Bytes.length payload in
  let out = Bytes.make (!total + plen) '\000' in
  let off = ref 0 in
  for k = 0 to Array.length plan - 1 do
    let e = plan.(k) in
    if P4ir.Phv.cell phv e.vc = 1 then begin
      P4ir.Phv.encode_at phv e.decl e.vc out ~off:!off;
      if e.csum_byte >= 0 then
        P4ir.Parser_graph.fix_checksum out ~off:!off ~csum_byte:e.csum_byte ~size:e.size;
      off := !off + e.size
    end
  done;
  Bytes.blit payload 0 out !off plen;
  out

(* Cells [vc .. vc + n - 1] back to the template's: a header invalid
   and zeroed, or standard metadata valid and zeroed. *)
let restore t phv vc n =
  for i = vc to vc + n - 1 do
    P4ir.Phv.set_cell phv i (P4ir.Phv.cell t.template i)
  done

(* The checksum the deparser's engine would write for an emitted
   self-checksummed header, computed over the header re-emitted into
   the scratch buffer. *)
let refresh_checksum t phv e =
  P4ir.Phv.encode_at phv e.decl e.vc t.scratch ~off:0;
  P4ir.Parser_graph.fix_checksum t.scratch ~off:0 ~csum_byte:e.csum_byte
    ~size:e.size;
  P4ir.Phv.set_cell phv e.csum_cell
    (Netpkt.Bytes_util.get_uint16 t.scratch e.csum_byte)

(* Start a pass from another pass's PHV. When the replay proves that
   parsing the frame [deparse_fast] would emit extracts exactly the
   emitted headers, the parsed PHV differs from this one only in what
   the frame does not carry: standard metadata, headers left out of
   the frame (invalid ones may still hold stale field values) and
   self-checksums. Reset exactly those, in place. *)
let adopt t phv =
  (* [replay] refuses a PHV of another layout than [t]'s. *)
  P4ir.Parser_graph.replay t.pcompiled phv ~order:t.order
  && begin
       for k = 0 to Array.length t.demit - 1 do
         let e = t.demit.(k) in
         if P4ir.Phv.cell phv e.vc <> 1 then restore t phv e.vc e.ncells
         else if e.csum_cell >= 0 then refresh_checksum t phv e
       done;
       for k = 0 to Array.length t.unemitted - 1 do
         let vc, n = t.unemitted.(k) in
         restore t phv vc n
       done;
       true
     end
