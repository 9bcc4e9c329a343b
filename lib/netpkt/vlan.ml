type t = { pcp : int; dei : int; vid : int; ethertype : int }

let size = 4

let make ?(pcp = 0) ~vid ethertype =
  if vid < 0 || vid > 4095 then invalid_arg "Vlan.make: vid not in 0..4095";
  { pcp = pcp land 7; dei = 0; vid; ethertype }

let encode_into t b ~off =
  let tci = (t.pcp lsl 13) lor (t.dei lsl 12) lor t.vid in
  Bytes_util.set_uint16 b off tci;
  Bytes_util.set_uint16 b (off + 2) t.ethertype

let decode b ~off =
  if Bytes.length b < off + size then Error "Vlan.decode: truncated"
  else
    let tci = Bytes_util.get_uint16 b off in
    Ok
      {
        pcp = tci lsr 13;
        dei = (tci lsr 12) land 1;
        vid = tci land 0xfff;
        ethertype = Bytes_util.get_uint16 b (off + 2);
      }

let equal a b =
  a.pcp = b.pcp && a.dei = b.dei && a.vid = b.vid && a.ethertype = b.ethertype

let pp ppf t =
  Format.fprintf ppf "vlan{vid=%d pcp=%d type=0x%04x}" t.vid t.pcp t.ethertype
