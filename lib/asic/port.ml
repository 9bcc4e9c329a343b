type mode = Normal | Loopback

type t = { modes : mode array }

let make spec = { modes = Array.make (Spec.n_eth_ports spec) Normal }

let set_mode t port mode =
  if port < 0 || port >= Array.length t.modes then
    invalid_arg (Printf.sprintf "Port.set_mode: %d is not an Ethernet port" port)
  else t.modes.(port) <- mode

let set_pipeline_loopback t spec pipe =
  List.iter (fun p -> set_mode t p Loopback) (Spec.ports_of_pipeline spec pipe)

let mode t port =
  if port < 0 || port >= Array.length t.modes then Normal else t.modes.(port)

let is_loopback t port = mode t port = Loopback

let loopback_count t =
  Array.fold_left (fun acc m -> if m = Loopback then acc + 1 else acc) 0 t.modes

let normal_count t = Array.length t.modes - loopback_count t

let external_capacity_fraction t =
  let n = Array.length t.modes in
  if n = 0 then 0.0 else float_of_int (normal_count t) /. float_of_int n

let copy t = { modes = Array.copy t.modes }
