type t = {
  dscp : int;
  ecn : int;
  total_length : int;
  ident : int;
  flags : int;
  frag_offset : int;
  ttl : int;
  protocol : int;
  checksum : int;
  src : Ip4.t;
  dst : Ip4.t;
}

let size = 20
let proto_icmp = 1
let proto_tcp = 6
let proto_udp = 17

let make ?(dscp = 0) ?(ident = 0) ?(ttl = 64) ~protocol ~src ~dst () =
  {
    dscp;
    ecn = 0;
    total_length = size;
    ident;
    flags = 2;
    frag_offset = 0;
    ttl;
    protocol;
    checksum = 0;
    src;
    dst;
  }

let encode_into t b ~off =
  Bytes_util.set_uint8 b off ((4 lsl 4) lor 5);
  Bytes_util.set_uint8 b (off + 1) ((t.dscp lsl 2) lor t.ecn);
  Bytes_util.set_uint16 b (off + 2) t.total_length;
  Bytes_util.set_uint16 b (off + 4) t.ident;
  Bytes_util.set_uint16 b (off + 6) ((t.flags lsl 13) lor t.frag_offset);
  Bytes_util.set_uint8 b (off + 8) t.ttl;
  Bytes_util.set_uint8 b (off + 9) t.protocol;
  (* Zero-then-recompute unconditionally: emitting a header whose
     fields were rewritten after decode (NAT, LB, routing TTL) with the
     stale decoded checksum put invalid frames on the wire. Recomputing
     over a valid unmodified header reproduces its checksum exactly, so
     pure re-encodes stay byte-identical. *)
  Bytes_util.set_uint16 b (off + 10) 0;
  Bytes_util.set_uint32 b (off + 12) (Ip4.to_int64 t.src);
  Bytes_util.set_uint32 b (off + 16) (Ip4.to_int64 t.dst);
  Bytes_util.set_uint16 b (off + 10)
    (Bytes_util.internet_checksum b ~off ~len:size)

let decode b ~off =
  if Bytes.length b < off + size then Error "Ipv4.decode: truncated"
  else
    let vihl = Bytes_util.get_uint8 b off in
    if vihl lsr 4 <> 4 then Error "Ipv4.decode: not version 4"
    else if vihl land 0xf <> 5 then Error "Ipv4.decode: options unsupported"
    else
      let tos = Bytes_util.get_uint8 b (off + 1) in
      let fl_fo = Bytes_util.get_uint16 b (off + 6) in
      Ok
        {
          dscp = tos lsr 2;
          ecn = tos land 3;
          total_length = Bytes_util.get_uint16 b (off + 2);
          ident = Bytes_util.get_uint16 b (off + 4);
          flags = fl_fo lsr 13;
          frag_offset = fl_fo land 0x1fff;
          ttl = Bytes_util.get_uint8 b (off + 8);
          protocol = Bytes_util.get_uint8 b (off + 9);
          checksum = Bytes_util.get_uint16 b (off + 10);
          src = Ip4.of_int64 (Bytes_util.get_uint32 b (off + 12));
          dst = Ip4.of_int64 (Bytes_util.get_uint32 b (off + 16));
        }

let checksum_valid b ~off = Bytes_util.internet_checksum b ~off ~len:size = 0

let pp ppf t =
  Format.fprintf ppf "ipv4{%a -> %a proto=%d ttl=%d len=%d}" Ip4.pp t.src
    Ip4.pp t.dst t.protocol t.ttl t.total_length
