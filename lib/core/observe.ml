(* The glue between the generic telemetry library and this data plane:
   owns the registry and the flight-recorder ring, installs the chip
   hooks (table stats, per-NF label counters, the SFC journey probe),
   and exports snapshots as JSON. *)

type t = {
  level : Telemetry.Level.t;
  reg : Telemetry.Registry.t;
  ring : Telemetry.Journey.t Telemetry.Ring.t;
  (* INT per-flow aggregate over every journey recorded here — unlike
     the ring, it forgets no packet. *)
  sink : Telemetry.Int_report.t;
  mutable next_id : int;
}

let default_ring_capacity = 256

let create level =
  {
    level;
    reg = Telemetry.Registry.create ();
    ring = Telemetry.Ring.create default_ring_capacity;
    sink = Telemetry.Int_report.create ();
    next_id = 0;
  }

let level t = t.level
let registry t = t.reg
let ring t = t.ring
let int_sink t = t.sink

let next_journey_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let nf_counter_name nf = "nf." ^ nf ^ ".applies"

(* The journey probe: reads the SFC position and the set of valid
   header instances (the parser path) off a PHV after a pipelet pass.
   Installed into the chip, which cannot decode the SFC header itself. *)
let sfc_probe phv =
  let sfc =
    match Sfc_header.of_phv phv with
    | Some h -> Some (h.Sfc_header.service_path_id, h.Sfc_header.service_index)
    | None -> None
  in
  let headers =
    List.filter_map
      (fun (d : P4ir.Hdr.decl) ->
        let n = d.P4ir.Hdr.name in
        if P4ir.Phv.is_valid phv n then Some n else None)
      (P4ir.Phv.decls phv)
  in
  { Telemetry.Journey.sfc; headers }

(* The registry is an explicit argument — nothing global: each observer
   (one per domain in a parallel run) wires its own registry into the
   chip it instruments. *)
let attach ~registry ~level chip =
  Asic.Chip.set_telemetry
    ~label_counters:(fun nf ->
      Telemetry.Registry.counter registry (nf_counter_name nf))
    chip level;
  Asic.Chip.set_sfc_probe chip sfc_probe

let attach_observer t chip = attach ~registry:t.reg ~level:t.level chip

(* Coarse error classes for the drop-reason counters; keyed off the
   stable prefixes of the runtime's own error strings. *)
let error_class msg =
  let has sub =
    let n = String.length sub and m = String.length msg in
    let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
    go 0
  in
  if has "CPU loops" then "cpu_loop"
  else if has "pass limit" then "pass_limit"
  else if has "egress port" then "bad_egress"
  else if has "parse" then "parse"
  else "other"

let verdict_string = function
  | Asic.Chip.Emitted { port; _ } -> Printf.sprintf "emitted:%d" port
  | Asic.Chip.Dropped -> "dropped"
  | Asic.Chip.To_cpu _ -> "to_cpu"

let record_journey t j =
  Telemetry.Ring.push t.ring j;
  Telemetry.Int_report.push t.sink j

let journeys t = Telemetry.Ring.to_list t.ring

(* A shard's journeys were already folded into its own INT aggregate,
   so they re-enter only the ring here; the aggregates merge
   field-wise. *)
let merge ~into src =
  Telemetry.Registry.merge ~into:into.reg src.reg;
  List.iter
    (fun j ->
      Telemetry.Ring.push into.ring
        { j with Telemetry.Journey.id = next_journey_id into })
    (journeys src);
  Telemetry.Int_report.merge ~into:into.sink src.sink

(* Copy the live table tallies (kept in each table's entry store, where
   the lookup paths can bump them cheaply) into registry counters so a
   snapshot sees one namespace. *)
let sync_tables t chip =
  List.iter
    (fun pl ->
      let where =
        String.map (fun c -> if c = ' ' then '_' else c) (Asic.Pipelet.name pl)
      in
      List.iter
        (fun tbl ->
          match P4ir.Table.stats tbl with
          | None -> ()
          | Some s ->
              let base =
                Printf.sprintf "table.%s.%s" where (P4ir.Table.name tbl)
              in
              Telemetry.Registry.counter t.reg (base ^ ".hits") := s.P4ir.Table.hits;
              Telemetry.Registry.counter t.reg (base ^ ".misses")
              := s.P4ir.Table.misses)
        (Asic.Pipelet.tables pl))
    (Asic.Chip.pipelets chip)

let snapshot t chip =
  sync_tables t chip;
  Telemetry.Registry.snapshot t.reg

let table_entry_hits chip =
  List.concat_map
    (fun pl ->
      let where = Asic.Pipelet.name pl in
      List.filter_map
        (fun tbl ->
          match P4ir.Table.stats tbl with
          | None -> None
          | Some _ ->
              Some
                ( Printf.sprintf "%s/%s" where (P4ir.Table.name tbl),
                  P4ir.Table.entry_hits tbl ))
        (Asic.Pipelet.tables pl))
    (Asic.Chip.pipelets chip)

let json t chip = Telemetry.Registry.to_json (snapshot t chip)

let pp ppf t chip = Telemetry.Registry.pp ppf (snapshot t chip)
