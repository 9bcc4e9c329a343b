type five_tuple = {
  src : Ip4.t;
  dst : Ip4.t;
  proto : int;
  src_port : int;
  dst_port : int;
}

let pp_five_tuple ppf t =
  Format.fprintf ppf "%a:%d -> %a:%d/%d" Ip4.pp t.src t.src_port Ip4.pp t.dst
    t.dst_port t.proto

let equal_five_tuple a b =
  Ip4.equal a.src b.src && Ip4.equal a.dst b.dst && a.proto = b.proto
  && a.src_port = b.src_port && a.dst_port = b.dst_port

let compare_five_tuple a b =
  let c = Ip4.compare a.src b.src in
  if c <> 0 then c
  else
    let c = Ip4.compare a.dst b.dst in
    if c <> 0 then c
    else
      let c = compare a.proto b.proto in
      if c <> 0 then c
      else
        let c = compare a.src_port b.src_port in
        if c <> 0 then c else compare a.dst_port b.dst_port

(* The CRC-32 of the tuple's 13 network-order bytes (addresses,
   protocol, ports), folded as two words without a buffer: the source
   and the destination's top three bytes, then the rest. The protocol
   and ports keep their low 8 and 16 bits, as their bytes would. *)
let hash_five_tuple t =
  let src = Int64.to_int (Ip4.to_int64 t.src)
  and dst = Int64.to_int (Ip4.to_int64 t.dst) in
  let c = Bytes_util.crc32_fold_be 0xFFFFFFFF ~bytes:7 ((src lsl 24) lor (dst lsr 8)) in
  let c =
    Bytes_util.crc32_fold_be (c lxor 0xFFFFFFFF) ~bytes:6
      (((dst land 0xff) lsl 40)
      lor ((t.proto land 0xff) lsl 32)
      lor ((t.src_port land 0xffff) lsl 16)
      lor (t.dst_port land 0xffff))
  in
  Int64.of_int c

(* Canonical (direction-free) form of a connection: the lower
   (address, port) endpoint goes first, so a packet and its reply map
   to the same tuple. The ordering compares the address first and the
   port only on ties — a total order over endpoints. *)
let canonicalize t =
  let c = Ip4.compare t.src t.dst in
  if c < 0 || (c = 0 && t.src_port <= t.dst_port) then t
  else
    {
      t with
      src = t.dst;
      dst = t.src;
      src_port = t.dst_port;
      dst_port = t.src_port;
    }

let hash_five_tuple_symmetric t = hash_five_tuple (canonicalize t)

type workload_spec = {
  seed : int;
  n_flows : int;
  client_subnet : Ip4.prefix;
  vip : Ip4.t;
  dst_port : int;
  proto : int;
}

let default_spec =
  {
    seed = 42;
    n_flows = 64;
    client_subnet = Ip4.prefix_of_string_exn "203.0.113.0/24";
    vip = Ip4.of_string_exn "10.0.0.100";
    dst_port = 80;
    proto = Ipv4.proto_tcp;
  }

let generate spec =
  let st = Random.State.make [| spec.seed |] in
  let host_bits = 32 - spec.client_subnet.Ip4.len in
  let module Seen = Set.Make (struct
    type t = five_tuple

    let compare = compare_five_tuple
  end) in
  let rec loop seen acc n =
    if n = 0 then List.rev acc
    else
      let host =
        if host_bits = 0 then 0L
        else
          (* Avoid network/broadcast addresses of the subnet. *)
          Int64.of_int (1 + Random.State.int st (max 1 ((1 lsl min host_bits 16) - 2)))
      in
      let src = Ip4.of_int64 (Int64.logor (Ip4.to_int64 spec.client_subnet.Ip4.addr) host) in
      let t =
        {
          src;
          dst = spec.vip;
          proto = spec.proto;
          src_port = 1024 + Random.State.int st (65536 - 1024);
          dst_port = spec.dst_port;
        }
      in
      if Seen.mem t seen then loop seen acc n
      else loop (Seen.add t seen) (t :: acc) (n - 1)
  in
  loop Seen.empty [] spec.n_flows

let random_tuple st =
  {
    src = Ip4.random st;
    dst = Ip4.random st;
    proto = (if Random.State.bool st then Ipv4.proto_tcp else Ipv4.proto_udp);
    src_port = Random.State.int st 65536;
    dst_port = Random.State.int st 65536;
  }
