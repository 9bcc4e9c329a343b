type t = { dst : Mac.t; src : Mac.t; ethertype : int }

let size = 14
let ethertype_ipv4 = 0x0800
let ethertype_arp = 0x0806
let ethertype_vlan = 0x8100
let ethertype_sfc = 0x894F

let make ?(dst = Mac.zero) ?(src = Mac.zero) ethertype = { dst; src; ethertype }

let encode_into t b ~off =
  Bytes_util.set_bits b ~bit_off:(8 * off) ~width:48 (Mac.to_int64 t.dst);
  Bytes_util.set_bits b ~bit_off:(8 * (off + 6)) ~width:48 (Mac.to_int64 t.src);
  Bytes_util.set_uint16 b (off + 12) t.ethertype

let decode b ~off =
  if Bytes.length b < off + size then Error "Eth.decode: truncated"
  else
    Ok
      {
        dst = Mac.of_int64 (Bytes_util.get_bits b ~bit_off:(8 * off) ~width:48);
        src =
          Mac.of_int64 (Bytes_util.get_bits b ~bit_off:(8 * (off + 6)) ~width:48);
        ethertype = Bytes_util.get_uint16 b (off + 12);
      }

let pp ppf t =
  Format.fprintf ppf "eth{dst=%a src=%a type=0x%04x}" Mac.pp t.dst Mac.pp t.src
    t.ethertype
