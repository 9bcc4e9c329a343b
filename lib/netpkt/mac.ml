type t = int64

let mask48 = 0xFFFF_FFFF_FFFFL
let of_int64 v = Int64.logand v mask48
let to_int64 t = t

let of_string s =
  match String.split_on_char ':' s with
  | [ a; b; c; d; e; f ] -> (
      try
        let parse x =
          if String.length x <> 2 then failwith "bad octet"
          else Int64.of_int (int_of_string ("0x" ^ x))
        in
        let acc =
          List.fold_left
            (fun acc o -> Int64.(logor (shift_left acc 8) (parse o)))
            0L [ a; b; c; d; e; f ]
        in
        Ok acc
      with _ -> Error (Printf.sprintf "Mac.of_string: bad address %S" s))
  | _ -> Error (Printf.sprintf "Mac.of_string: bad address %S" s)

let of_string_exn s =
  match of_string s with Ok t -> t | Error e -> invalid_arg e

let to_string t =
  let octet i = Int64.(to_int (logand (shift_right_logical t (8 * i)) 0xffL)) in
  Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x" (octet 5) (octet 4) (octet 3)
    (octet 2) (octet 1) (octet 0)

let broadcast = mask48
let zero = 0L
let is_multicast t = Int64.(logand (shift_right_logical t 40) 1L) = 1L
let equal = Int64.equal
let pp ppf t = Format.pp_print_string ppf (to_string t)

let random st =
  let hi = Int64.of_int (Random.State.int st 0x1000000) in
  let lo = Int64.of_int (Random.State.int st 0x1000000) in
  let v = Int64.(logor (shift_left hi 24) lo) in
  (* Clear the multicast bit, set locally administered. *)
  Int64.(logor (logand v 0xFEFF_FFFF_FFFFL) 0x0200_0000_0000L)
