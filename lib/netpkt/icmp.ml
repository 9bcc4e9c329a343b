type t = { typ : int; code : int; ident : int; seq : int }

let size = 8

let encode_into t b ~off =
  Bytes_util.set_uint8 b off t.typ;
  Bytes_util.set_uint8 b (off + 1) t.code;
  Bytes_util.set_uint16 b (off + 2) 0;
  Bytes_util.set_uint16 b (off + 4) t.ident;
  Bytes_util.set_uint16 b (off + 6) t.seq;
  Bytes_util.set_uint16 b (off + 2)
    (Bytes_util.internet_checksum b ~off ~len:size)

let decode b ~off =
  if Bytes.length b < off + size then Error "Icmp.decode: truncated"
  else
    Ok
      {
        typ = Bytes_util.get_uint8 b off;
        code = Bytes_util.get_uint8 b (off + 1);
        ident = Bytes_util.get_uint16 b (off + 4);
        seq = Bytes_util.get_uint16 b (off + 6);
      }

let pp ppf t = Format.fprintf ppf "icmp{type=%d code=%d seq=%d}" t.typ t.code t.seq
