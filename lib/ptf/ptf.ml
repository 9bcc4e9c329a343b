type expectation = Emitted_on of int | Emitted_anywhere | Dropped | To_cpu

type outcome = {
  runtime : Dejavu_core.Runtime.outcome;
  decoded : Netpkt.Pkt.t option;
}

let pp_expectation ppf = function
  | Emitted_on p -> Format.fprintf ppf "emitted on port %d" p
  | Emitted_anywhere -> Format.pp_print_string ppf "emitted"
  | Dropped -> Format.pp_print_string ppf "dropped"
  | To_cpu -> Format.pp_print_string ppf "sent to CPU"

let frame_of_verdict = function
  | Asic.Chip.Emitted { frame; _ } -> Some frame
  | Asic.Chip.To_cpu frame -> Some frame
  | Asic.Chip.Dropped -> None

let send runtime ~in_port pkt =
  let frame = Netpkt.Pkt.encode pkt in
  match Dejavu_core.Runtime.process runtime ~in_port frame with
  | Error e -> Error e
  | Ok outcome ->
      let decoded =
        Option.bind
          (frame_of_verdict outcome.Dejavu_core.Runtime.verdict)
          (fun f -> Result.to_option (Netpkt.Pkt.decode f))
      in
      Ok { runtime = outcome; decoded }

let verdict_matches expect verdict =
  match (expect, verdict) with
  | Emitted_on p, Asic.Chip.Emitted { port; _ } -> p = port
  | Emitted_anywhere, Asic.Chip.Emitted _ -> true
  | Dropped, Asic.Chip.Dropped -> true
  | To_cpu, Asic.Chip.To_cpu _ -> true
  | (Emitted_on _ | Emitted_anywhere | Dropped | To_cpu), _ -> false

let pp_verdict ppf = function
  | Asic.Chip.Emitted { port; _ } -> Format.fprintf ppf "emitted on port %d" port
  | Asic.Chip.Dropped -> Format.pp_print_string ppf "dropped"
  | Asic.Chip.To_cpu _ -> Format.pp_print_string ppf "sent to CPU"

let send_expect runtime ~in_port pkt ~expect ?check () =
  match send runtime ~in_port pkt with
  | Error e -> Error e
  | Ok outcome ->
      if not (verdict_matches expect outcome.runtime.Dejavu_core.Runtime.verdict)
      then
        Error
          (Format.asprintf "expected %a, got %a" pp_expectation expect pp_verdict
             outcome.runtime.Dejavu_core.Runtime.verdict)
      else (
        match (check, outcome.decoded) with
        | None, _ -> Ok outcome
        | Some _, None -> Error "content check requested but no output frame"
        | Some f, Some pkt -> (
            match f pkt with
            | Ok () -> Ok outcome
            | Error e -> Error ("content check failed: " ^ e)))
