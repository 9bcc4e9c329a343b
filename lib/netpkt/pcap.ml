type packet = { ts_sec : int; ts_usec : int; frame : Bytes.t }

let packet ?(ts_sec = 0) ?(ts_usec = 0) frame = { ts_sec; ts_usec; frame }

(* Frames longer than this are truncated on write, with the original
   length recorded, as pcap specifies. *)
let snaplen = 65535
let magic = 0xA1B2C3D4
let linktype_ethernet = 1

let set_u32le b off v =
  Bytes.set b off (Char.chr (v land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 3) (Char.chr ((v lsr 24) land 0xff))

let get_u32le b off =
  Char.code (Bytes.get b off)
  lor (Char.code (Bytes.get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.get b (off + 3)) lsl 24)

let set_u16le b off v =
  Bytes.set b off (Char.chr (v land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xff))

let to_bytes packets =
  let body_len =
    List.fold_left
      (fun acc p -> acc + 16 + min snaplen (Bytes.length p.frame))
      0 packets
  in
  let out = Bytes.make (24 + body_len) '\000' in
  set_u32le out 0 magic;
  set_u16le out 4 2 (* major *);
  set_u16le out 6 4 (* minor *);
  (* thiszone, sigfigs stay zero *)
  set_u32le out 16 snaplen;
  set_u32le out 20 linktype_ethernet;
  let off = ref 24 in
  List.iter
    (fun p ->
      let cap = min snaplen (Bytes.length p.frame) in
      set_u32le out !off p.ts_sec;
      set_u32le out (!off + 4) p.ts_usec;
      set_u32le out (!off + 8) cap;
      set_u32le out (!off + 12) (Bytes.length p.frame);
      Bytes.blit p.frame 0 out (!off + 16) cap;
      off := !off + 16 + cap)
    packets;
  out

let of_bytes b =
  if Bytes.length b < 24 then Error "Pcap.of_bytes: truncated header"
  else if get_u32le b 0 <> magic then
    Error "Pcap.of_bytes: not a little-endian microsecond capture"
  else begin
    let rec records off acc =
      if off = Bytes.length b then Ok (List.rev acc)
      else if off + 16 > Bytes.length b then
        Error "Pcap.of_bytes: truncated record header"
      else
        let cap = get_u32le b (off + 8) in
        if off + 16 + cap > Bytes.length b then
          Error "Pcap.of_bytes: truncated record body"
        else
          records (off + 16 + cap)
            ({
               ts_sec = get_u32le b off;
               ts_usec = get_u32le b (off + 4);
               frame = Bytes.sub b (off + 16) cap;
             }
            :: acc)
    in
    records 24 []
  end

let write_file path packets =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_bytes oc (to_bytes packets))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      let b = Bytes.create len in
      really_input ic b 0 len;
      of_bytes b)
