type t = {
  src_port : int;
  dst_port : int;
  seq : int64;
  ack : int64;
  flags : int;
  window : int;
  checksum : int;
  urgent : int;
}

let size = 20
let flag_ack = 0x10

let make ?(seq = 0L) ?(window = 65535) ~src_port ~dst_port () =
  {
    src_port;
    dst_port;
    seq;
    ack = 0L;
    flags = flag_ack;
    window;
    checksum = 0;
    urgent = 0;
  }

let encode_into t b ~off =
  Bytes_util.set_uint16 b off t.src_port;
  Bytes_util.set_uint16 b (off + 2) t.dst_port;
  Bytes_util.set_uint32 b (off + 4) t.seq;
  Bytes_util.set_uint32 b (off + 8) t.ack;
  (* data offset = 5 words, then the 9 flag bits. *)
  Bytes_util.set_uint16 b (off + 12) ((5 lsl 12) lor (t.flags land 0x1ff));
  Bytes_util.set_uint16 b (off + 14) t.window;
  Bytes_util.set_uint16 b (off + 16) t.checksum;
  Bytes_util.set_uint16 b (off + 18) t.urgent

let decode b ~off =
  if Bytes.length b < off + size then Error "Tcp.decode: truncated"
  else
    let off_flags = Bytes_util.get_uint16 b (off + 12) in
    Ok
      {
        src_port = Bytes_util.get_uint16 b off;
        dst_port = Bytes_util.get_uint16 b (off + 2);
        seq = Bytes_util.get_uint32 b (off + 4);
        ack = Bytes_util.get_uint32 b (off + 8);
        flags = off_flags land 0x1ff;
        window = Bytes_util.get_uint16 b (off + 14);
        checksum = Bytes_util.get_uint16 b (off + 16);
        urgent = Bytes_util.get_uint16 b (off + 18);
      }

let pp ppf t =
  Format.fprintf ppf "tcp{%d -> %d seq=%Ld flags=0x%x}" t.src_port t.dst_port
    t.seq t.flags
