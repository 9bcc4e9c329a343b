type config = {
  spec : Spec.t;
  ingress_programs : P4ir.Program.t array;
  egress_programs : P4ir.Program.t array;
  ports : Port.t;
  mirror_port : int option;
}

type exec_mode = Fast | Reference

type t = {
  spec : Spec.t;
  ingress : Pipelet.t array;
  egress : Pipelet.t array;
  ports : Port.t;
  mirror_port : int option;
  mutable mode : exec_mode;
  mutable telem : Telemetry.Level.t;
  (* Reads per-hop metadata (SFC position, valid headers) off the PHV
     after each pipelet pass. Injected by the runtime layer: the chip
     cannot depend on the SFC header definition, which lives above it. *)
  mutable probe : P4ir.Phv.t -> Telemetry.Journey.hop_meta;
}

(* One PHV layout for the whole chip when every pipelet program parses
   the same declarations and deparses in the same order — always so for
   [Compose.build], which loads one generic parser everywhere. A PHV
   one pass ends with is then a PHV of the next pass's layout. *)
let chip_layout (config : config) =
  match
    Array.to_list config.ingress_programs @ Array.to_list config.egress_programs
  with
  | [] -> None
  | p :: rest -> (
      let decls (q : P4ir.Program.t) = q.P4ir.Program.parser.P4ir.Parser_graph.decls in
      let same (q : P4ir.Program.t) =
        List.equal P4ir.Hdr.equal_decl (decls p) (decls q)
        && List.equal String.equal p.P4ir.Program.deparse_order
             q.P4ir.Program.deparse_order
      in
      if not (List.for_all same rest) then None
      else
        (* Conflicting declarations: each pipelet's load reports them. *)
        match Stdmeta.layout (decls p) with
        | l -> Some l
        | exception Invalid_argument _ -> None)

let no_probe _ = Telemetry.Journey.no_meta

let load (config : config) =
  let n = config.spec.Spec.n_pipelines in
  if
    Array.length config.ingress_programs <> n
    || Array.length config.egress_programs <> n
  then Error (Printf.sprintf "Chip.load: expected %d programs per side" n)
  else
    let ( let* ) = Result.bind in
    let layout = chip_layout config in
    let load_side kind programs =
      Array.to_list programs
      |> List.mapi (fun pipeline prog ->
             Pipelet.load ?layout config.spec { Pipelet.pipeline; kind } prog)
      |> List.fold_left
           (fun acc r ->
             let* l = acc in
             let* p = r in
             Ok (p :: l))
           (Ok [])
      |> Result.map (fun l -> Array.of_list (List.rev l))
    in
    let* ingress = load_side Pipelet.Ingress config.ingress_programs in
    let* egress = load_side Pipelet.Egress config.egress_programs in
    (match config.mirror_port with
    | Some p when not (Spec.valid_port config.spec p) ->
        Error (Printf.sprintf "Chip.load: invalid mirror port %d" p)
    | Some _ | None -> Ok ())
    |> Result.map (fun () ->
           {
             spec = config.spec;
             ingress;
             egress;
             ports = config.ports;
             mirror_port = config.mirror_port;
             mode = Fast;
             telem = Telemetry.Level.Off;
             probe = no_probe;
           })

let spec t = t.spec
let ports t = t.ports
let exec_mode t = t.mode
let set_exec_mode t mode = t.mode <- mode
let pipelets t = Array.to_list t.ingress @ Array.to_list t.egress
let set_sfc_probe t probe = t.probe <- probe

let find_table t name =
  List.find_map
    (fun pl -> P4ir.Program.find_table (Pipelet.program pl) name)
    (pipelets t)

let find_register t name =
  List.find_map
    (fun pl -> P4ir.Program.find_register (Pipelet.program pl) name)
    (pipelets t)

(* A clone for per-domain parallel execution that shares nothing it
   writes: each pipelet is replicated ([Pipelet.replicate]: its tables
   share the source's bodies until written, its registers are copied,
   its control is recompiled over them) and the port modes are copied.
   It only reads [t], so several domains may replicate one chip at
   once. Telemetry starts Off — the runtime attaches a per-domain
   observer if it wants one — and the exec mode carries over so a
   replica runs the same path as its original. *)
let replicate t =
  {
    t with
    ingress = Array.map Pipelet.replicate t.ingress;
    egress = Array.map Pipelet.replicate t.egress;
    ports = Port.copy t.ports;
    telem = Telemetry.Level.Off;
    probe = no_probe;
  }

(* Clearing a table that shares its body gives up the claim without
   copying, so the source's next write to it is in place. *)
let release t =
  List.iter (fun pl -> List.iter P4ir.Table.clear (Pipelet.tables pl)) (pipelets t)

(* Fold a replica's table tallies back into this chip's: pipelet arrays
   have identical shapes by construction, tables pair by name. The
   tallies land in the live [Table.stats] records, so a later
   [Observe.sync_tables] naturally sees the merged counts. *)
let merge_stats ~into src =
  let each a b =
    let tbls_b = Pipelet.tables b in
    List.iter
      (fun ta ->
        match
          List.find_opt
            (fun tb -> String.equal (P4ir.Table.name tb) (P4ir.Table.name ta))
            tbls_b
        with
        | Some tb -> P4ir.Table.merge_stats_from ta ~src:tb
        | None -> ())
      (Pipelet.tables a)
  in
  Array.iter2 each into.ingress src.ingress;
  Array.iter2 each into.egress src.egress

let set_telemetry ?label_counters t level =
  t.telem <- level;
  let on = Telemetry.Level.counters_on level in
  let counters = if on then label_counters else None in
  let each pl =
    List.iter (fun tbl -> P4ir.Table.set_stats_enabled tbl on) (Pipelet.tables pl);
    Pipelet.set_label_counters pl counters
  in
  Array.iter each t.ingress;
  Array.iter each t.egress

let run_pipelet t pl ?trace phv =
  match t.mode with
  | Fast -> Pipelet.process ?trace pl phv
  | Reference -> Pipelet.process_reference ?trace pl phv

let parse_frame t pl frame =
  match t.mode with
  | Fast -> Pipelet.parse pl frame
  | Reference -> Pipelet.parse_reference pl frame

let deparse_frame t pl phv ~payload =
  match t.mode with
  | Fast -> Pipelet.deparse_fast pl phv ~payload
  | Reference -> Pipelet.deparse pl phv ~payload

(* Across the traffic manager, from ingress [from] to egress [pl].
   Reference mode, the oracle, deparses and re-parses. Fast mode hands
   the PHV over when {!Pipelet.adopt} proves that indistinguishable
   from those bytes, and goes through them otherwise. *)
let cross_tm t ~from pl phv ~payload =
  match t.mode with
  | Reference -> Pipelet.parse_reference pl (Pipelet.deparse from phv ~payload)
  | Fast ->
      if Pipelet.adopt pl phv then Ok (phv, payload)
      else Pipelet.parse pl (Pipelet.deparse_fast from phv ~payload)

let pipelet t (id : Pipelet.id) =
  match id.Pipelet.kind with
  | Pipelet.Ingress -> t.ingress.(id.Pipelet.pipeline)
  | Pipelet.Egress -> t.egress.(id.Pipelet.pipeline)

type verdict =
  | Emitted of { port : int; frame : Bytes.t }
  | Dropped
  | To_cpu of Bytes.t

type result = {
  verdict : verdict;
  resubmits : int;
  recircs : int;
  latency_ns : float;
  mirrored : (int * Bytes.t) list;
  hops : Telemetry.Journey.hop list;
}

let pass_limit = 64

type walk_state = {
  mutable resubmits : int;
  mutable recircs : int;
  mutable passes : int;
  mutable latency : float;
  trace : P4ir.Control.trace_event list ref option;
      (* [Journeys] mode only: the current pass's events, reversed —
         nothing but the hops reads them *)
  mutable mirrored : (int * Bytes.t) list;  (* reversed *)
  mutable hops : Telemetry.Journey.hop list;  (* reversed *)
  mutable hop_from : float;  (* [latency] when the last hop ended *)
}

(* Standard-metadata accessors: every PHV a pipelet parses (in either
   mode) leads with the standard-metadata header, so its fields sit at
   the same fixed cells in every layout. *)
let get_drop phv = P4ir.Phv.cell phv Stdmeta.drop_cell
let get_to_cpu phv = P4ir.Phv.cell phv Stdmeta.to_cpu_cell
let get_resubmit phv = P4ir.Phv.cell phv Stdmeta.resubmit_cell
let get_mirror phv = P4ir.Phv.cell phv Stdmeta.mirror_cell
let get_egress_spec phv = P4ir.Phv.cell phv Stdmeta.egress_spec_cell
let port_mask = P4ir.Hdr.mask (P4ir.Hdr.field_width Stdmeta.decl "ingress_port")

let set_ingress_port phv p =
  P4ir.Phv.set_cell phv Stdmeta.ingress_port_cell (p land port_mask)

let set_egress_port phv p =
  P4ir.Phv.set_cell phv Stdmeta.egress_port_cell (p land port_mask)

let set_resubmit phv v = P4ir.Phv.set_cell phv Stdmeta.resubmit_cell (v land 1)

let finish st verdict =
  Ok
    {
      verdict;
      resubmits = st.resubmits;
      recircs = st.recircs;
      latency_ns = st.latency;
      mirrored = List.rev st.mirrored;
      hops = List.rev st.hops;
    }

(* In Journeys mode, close this pipelet pass as a hop: its own events,
   the modelled latency since the last hop ended (so the hops' shares
   sum to the walk's latency), the recirc/resubmit depth and the
   probe's read of the PHV — the INT-style record each pass leaves. *)
let record_hop t st pl phv =
  match st.trace with
  | None -> ()
  | Some events ->
      st.hops <-
        {
          Telemetry.Journey.pipelet = Pipelet.name pl;
          events = List.rev !events;
          latency_ns = st.latency -. st.hop_from;
          recirc_depth = st.recircs;
          resubmit_depth = st.resubmits;
          meta = t.probe phv;
        }
        :: st.hops;
      st.hop_from <- st.latency;
      events := []

let rec ingress_pass t st ~pipeline ~entry_port frame =
  if st.passes >= pass_limit then
    Error
      (Printf.sprintf "Chip.inject: pass limit %d exceeded (routing loop?)"
         pass_limit)
  else begin
    st.passes <- st.passes + 1;
    let pl = t.ingress.(pipeline) in
    st.latency <- st.latency +. Latency.pipe_pass_ns t.spec;
    match parse_frame t pl frame with
    | Error e -> Error e
    | Ok (phv, payload) ->
        set_ingress_port phv entry_port;
        run_pipelet t pl ?trace:st.trace phv;
        record_hop t st pl phv;
        (* Drop and punt-to-CPU decisions win over resubmission: an NF
           that punts mid-chain must not be replayed by the branching
           table's pending resubmit. *)
        if get_drop phv = 1 then finish st Dropped
        else if get_to_cpu phv = 1 then
          finish st (To_cpu (deparse_frame t pl phv ~payload))
        else if get_resubmit phv = 1 then begin
          (* Resubmission re-enters the same ingress parser with the
             ingress-deparsed packet. *)
          st.resubmits <- st.resubmits + 1;
          set_resubmit phv 0;
          let frame' = deparse_frame t pl phv ~payload in
          ingress_pass t st ~pipeline ~entry_port frame'
        end
        else
          let out_port = get_egress_spec phv in
          if not (Spec.valid_port t.spec out_port) then
            Error
              (Printf.sprintf
                 "Chip.inject: invalid egress port %d after ingress %d"
                 out_port pipeline)
          else if out_port = Spec.cpu_port then
            finish st (To_cpu (deparse_frame t pl phv ~payload))
          else
            let egress_pipe = Option.get (Spec.pipeline_of_any_port t.spec out_port) in
            st.latency <- st.latency +. t.spec.Spec.lat.Spec.tm_ns;
            egress_pass t st ~pipeline:egress_pipe ~out_port ~from:pl phv ~payload
  end

and egress_pass t st ~pipeline ~out_port ~from phv ~payload =
  if st.passes >= pass_limit then
    Error
      (Printf.sprintf "Chip.inject: pass limit %d exceeded (routing loop?)"
         pass_limit)
  else begin
    st.passes <- st.passes + 1;
    let pl = t.egress.(pipeline) in
    st.latency <- st.latency +. Latency.pipe_pass_ns t.spec;
    match cross_tm t ~from pl phv ~payload with
    | Error e -> Error e
    | Ok (phv, payload) ->
        set_egress_port phv out_port;
        run_pipelet t pl ?trace:st.trace phv;
        record_hop t st pl phv;
        if get_drop phv = 1 then finish st Dropped
        else if get_to_cpu phv = 1 then
          finish st (To_cpu (deparse_frame t pl phv ~payload))
        else
          let frame' = deparse_frame t pl phv ~payload in
          (* Mirroring: a copy of the departing frame goes to the
             analysis port; the original continues unchanged. *)
          (match (t.mirror_port, get_mirror phv = 1) with
          | Some mp, true -> st.mirrored <- (mp, Bytes.copy frame') :: st.mirrored
          | _ -> ());
          let loops_back =
            Spec.is_recirc_port out_port || Port.is_loopback t.ports out_port
          in
          if loops_back then begin
            st.recircs <- st.recircs + 1;
            st.latency <- st.latency +. Latency.recirc_on_chip_ns t.spec;
            ingress_pass t st ~pipeline ~entry_port:out_port frame'
          end
          else finish st (Emitted { port = out_port; frame = frame' })
  end

let fresh_state t =
  {
    resubmits = 0;
    recircs = 0;
    passes = 0;
    latency = 0.0;
    trace =
      (if Telemetry.Level.journeys_on t.telem then Some (ref []) else None);
    mirrored = [];
    hops = [];
    hop_from = 0.0;
  }

let inject t ~in_port frame =
  if in_port < 0 || in_port >= Spec.n_eth_ports t.spec then
    Error (Printf.sprintf "Chip.inject: %d is not an Ethernet port" in_port)
  else if Port.is_loopback t.ports in_port then
    Error
      (Printf.sprintf "Chip.inject: port %d is in loopback mode and takes no external traffic"
         in_port)
  else begin
    let st = fresh_state t in
    (* MAC/serdes in and out of the chip. *)
    st.latency <- 2.0 *. t.spec.Spec.lat.Spec.mac_serdes_ns;
    ingress_pass t st
      ~pipeline:(Spec.port_pipeline t.spec in_port)
      ~entry_port:in_port frame
  end

let inject_cpu t ~pipeline frame =
  if pipeline < 0 || pipeline >= t.spec.Spec.n_pipelines then
    Error (Printf.sprintf "Chip.inject_cpu: bad pipeline %d" pipeline)
  else begin
    let st = fresh_state t in
    st.latency <- t.spec.Spec.lat.Spec.mac_serdes_ns;
    ingress_pass t st ~pipeline ~entry_port:Spec.cpu_port frame
  end
