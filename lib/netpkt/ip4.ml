type t = int64

let mask32 = 0xFFFF_FFFFL
let of_int64 v = Int64.logand v mask32
let to_int64 t = t

let of_octets a b c d =
  let byte x = Int64.of_int (x land 0xff) in
  Int64.(
    logor
      (logor (shift_left (byte a) 24) (shift_left (byte b) 16))
      (logor (shift_left (byte c) 8) (byte d)))

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      try
        let oct x =
          let v = int_of_string x in
          if v < 0 || v > 255 then failwith "octet" else v
        in
        Ok (of_octets (oct a) (oct b) (oct c) (oct d))
      with _ -> Error (Printf.sprintf "Ip4.of_string: bad address %S" s))
  | _ -> Error (Printf.sprintf "Ip4.of_string: bad address %S" s)

let of_string_exn s =
  match of_string s with Ok t -> t | Error e -> invalid_arg e

let to_string t =
  let octet i = Int64.(to_int (logand (shift_right_logical t (8 * i)) 0xffL)) in
  Printf.sprintf "%d.%d.%d.%d" (octet 3) (octet 2) (octet 1) (octet 0)

let equal = Int64.equal
let compare = Int64.compare
let pp ppf t = Format.pp_print_string ppf (to_string t)

let random st =
  Int64.logand (Random.State.int64 st Int64.max_int) mask32

type prefix = { addr : t; len : int }

let prefix_mask len =
  if len = 0 then 0L
  else Int64.logand (Int64.shift_left mask32 (32 - len)) mask32

let prefix addr len =
  if len < 0 || len > 32 then invalid_arg "Ip4.prefix: length not in 0..32";
  { addr = Int64.logand addr (prefix_mask len); len }

let prefix_of_string s =
  match String.split_on_char '/' s with
  | [ a; l ] -> (
      match (of_string a, int_of_string_opt l) with
      | Ok addr, Some len when len >= 0 && len <= 32 -> Ok (prefix addr len)
      | _ -> Error (Printf.sprintf "Ip4.prefix_of_string: bad prefix %S" s))
  | [ a ] -> Result.map (fun addr -> prefix addr 32) (of_string a)
  | _ -> Error (Printf.sprintf "Ip4.prefix_of_string: bad prefix %S" s)

let prefix_of_string_exn s =
  match prefix_of_string s with Ok p -> p | Error e -> invalid_arg e

let prefix_to_string p = Printf.sprintf "%s/%d" (to_string p.addr) p.len
let matches p t = Int64.equal (Int64.logand t (prefix_mask p.len)) p.addr
