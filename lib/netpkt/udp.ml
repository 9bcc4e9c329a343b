type t = { src_port : int; dst_port : int; length : int; checksum : int }

let size = 8
let port_vxlan = 4789

let make ~src_port ~dst_port () =
  { src_port; dst_port; length = size; checksum = 0 }

let encode_into t b ~off =
  Bytes_util.set_uint16 b off t.src_port;
  Bytes_util.set_uint16 b (off + 2) t.dst_port;
  Bytes_util.set_uint16 b (off + 4) t.length;
  Bytes_util.set_uint16 b (off + 6) t.checksum

let decode b ~off =
  if Bytes.length b < off + size then Error "Udp.decode: truncated"
  else
    Ok
      {
        src_port = Bytes_util.get_uint16 b off;
        dst_port = Bytes_util.get_uint16 b (off + 2);
        length = Bytes_util.get_uint16 b (off + 4);
        checksum = Bytes_util.get_uint16 b (off + 6);
      }

let pp ppf t =
  Format.fprintf ppf "udp{%d -> %d len=%d}" t.src_port t.dst_port t.length
