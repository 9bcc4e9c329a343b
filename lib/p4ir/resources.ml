type t = {
  stages : int;
  table_ids : int;
  srams : int;
  tcams : int;
  crossbar_bytes : int;
  vliws : int;
  gateways : int;
  hash_bits : int;
}

let zero =
  {
    stages = 0;
    table_ids = 0;
    srams = 0;
    tcams = 0;
    crossbar_bytes = 0;
    vliws = 0;
    gateways = 0;
    hash_bits = 0;
  }

let add a b =
  {
    stages = a.stages + b.stages;
    table_ids = a.table_ids + b.table_ids;
    srams = a.srams + b.srams;
    tcams = a.tcams + b.tcams;
    crossbar_bytes = a.crossbar_bytes + b.crossbar_bytes;
    vliws = a.vliws + b.vliws;
    gateways = a.gateways + b.gateways;
    hash_bits = a.hash_bits + b.hash_bits;
  }

let max_merge a b =
  {
    stages = max a.stages b.stages;
    table_ids = a.table_ids + b.table_ids;
    srams = a.srams + b.srams;
    tcams = a.tcams + b.tcams;
    crossbar_bytes = max a.crossbar_bytes b.crossbar_bytes;
    vliws = a.vliws + b.vliws;
    gateways = a.gateways + b.gateways;
    hash_bits = max a.hash_bits b.hash_bits;
  }

let sum = List.fold_left add zero

let fits r ~cap =
  r.stages <= cap.stages && r.table_ids <= cap.table_ids && r.srams <= cap.srams
  && r.tcams <= cap.tcams
  && r.crossbar_bytes <= cap.crossbar_bytes
  && r.vliws <= cap.vliws && r.gateways <= cap.gateways
  && r.hash_bits <= cap.hash_bits

let scale k r =
  {
    stages = k * r.stages;
    table_ids = k * r.table_ids;
    srams = k * r.srams;
    tcams = k * r.tcams;
    crossbar_bytes = k * r.crossbar_bytes;
    vliws = k * r.vliws;
    gateways = k * r.gateways;
    hash_bits = k * r.hash_bits;
  }

type stage_caps = {
  cap_table_ids : int;
  cap_srams : int;
  cap_tcams : int;
  cap_crossbar_bytes : int;
  cap_vliws : int;
  cap_gateways : int;
  cap_hash_bits : int;
}

let tofino_stage_caps =
  {
    cap_table_ids = 16;
    cap_srams = 80;
    cap_tcams = 24;
    cap_crossbar_bytes = 128;
    cap_vliws = 32;
    cap_gateways = 16;
    cap_hash_bits = 416;
  }

let sram_block_bits = 128 * 1024 (* 1K entries x 128b words *)
let tcam_block_entries = 512
let tcam_block_width = 44

let ceil_div a b = (a + b - 1) / b

let action_data_bits table =
  List.fold_left
    (fun acc (a : Action.t) ->
      max acc (List.fold_left (fun s (_, w) -> s + w) 0 a.Action.params))
    0 (Table.actions table)

let of_table table =
  let kb = Table.key_bits table in
  let adb = action_data_bits table in
  let size = Table.max_size table in
  let has_tcam_key =
    List.exists
      (fun (k : Table.key) ->
        match k.Table.kind with
        | Table.Ternary | Table.Lpm | Table.Range -> true
        | Table.Exact -> false)
      (Table.keys table)
  in
  let srams, tcams, hash_bits =
    if kb = 0 then (0, 0, 0) (* keyless: default-action only *)
    else if has_tcam_key then
      (* Match in TCAM; action data still lives in SRAM. *)
      let tcam_cols = ceil_div kb tcam_block_width in
      let tcam_rows = ceil_div size tcam_block_entries in
      let ad_srams = if adb = 0 then 0 else ceil_div (size * (adb + 8)) sram_block_bits in
      (ad_srams, tcam_cols * tcam_rows, 0)
    else
      (* Exact match: hash way in SRAM with ~20% overhead bits/entry. *)
      let entry_bits = kb + adb + 16 in
      (max 1 (ceil_div (size * entry_bits) sram_block_bits), 0, min kb 64)
  in
  {
    stages = 1;
    table_ids = 1;
    srams;
    tcams;
    crossbar_bytes = ceil_div kb 8;
    vliws = List.length (Table.actions table);
    gateways = 0;
    hash_bits;
  }

let of_control env control =
  let tables = Control.tables_used control in
  let demand =
    sum
      (List.map
         (fun name ->
           match env name with
           | Some t -> { (of_table t) with stages = 0 }
           | None -> invalid_arg (Printf.sprintf "Resources: unknown table %s" name))
         tables)
  in
  let _, stages = Deps.min_stages env control in
  { demand with stages; gateways = Control.gateway_count control }

let pp ppf r =
  Format.fprintf ppf
    "{stages=%d; tables=%d; srams=%d; tcams=%d; xbar=%dB; vliw=%d; gw=%d; hash=%db}"
    r.stages r.table_ids r.srams r.tcams r.crossbar_bytes r.vliws r.gateways
    r.hash_bits
