type t = {
  path_id : int;
  name : string;
  nfs : string list;
  weight : float;
  exit_port : int;
}

let make ~path_id ~name ~nfs ?(weight = 1.0) ~exit_port () =
  if nfs = [] then invalid_arg (Printf.sprintf "Chain.make %s: empty chain" name);
  if List.length (List.sort_uniq String.compare nfs) <> List.length nfs then
    invalid_arg (Printf.sprintf "Chain.make %s: duplicate NFs in chain" name);
  if path_id < 1 || path_id > 0xFFFF then
    invalid_arg (Printf.sprintf "Chain.make %s: path id %d not in 1..65535" name path_id);
  if weight <= 0.0 then
    invalid_arg (Printf.sprintf "Chain.make %s: weight must be positive" name);
  { path_id; name; nfs; weight; exit_port }

let length t = List.length t.nfs

let position t nf =
  let rec go i = function
    | [] -> None
    | x :: rest -> if String.equal x nf then Some i else go (i + 1) rest
  in
  go 0 t.nfs

let all_nfs chains =
  let seen = Hashtbl.create 16 in
  List.concat_map (fun c -> c.nfs) chains
  |> List.filter (fun nf ->
         if Hashtbl.mem seen nf then false
         else begin
           Hashtbl.add seen nf ();
           true
         end)

let validate_against registry chains =
  let ids = List.map (fun c -> c.path_id) chains in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    Error "duplicate path ids across chains"
  else
    List.fold_left
      (fun acc nf ->
        Result.bind acc (fun () ->
            if List.mem_assoc nf registry then Ok ()
            else Error (Printf.sprintf "chain references unknown NF %S" nf)))
      (Ok ()) (all_nfs chains)

let normalize_weights chains =
  let total = List.fold_left (fun acc c -> acc +. c.weight) 0.0 chains in
  if total <= 0.0 then chains
  else List.map (fun c -> { c with weight = c.weight /. total }) chains
