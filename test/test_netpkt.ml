(* Unit and property tests for the byte-level packet substrate. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Bytes_util --- *)

let test_bits_roundtrip_simple () =
  let b = Bytes.make 8 '\000' in
  Netpkt.Bytes_util.set_bits b ~bit_off:3 ~width:13 0x1ABCL;
  check Alcotest.int64 "13-bit value at offset 3" 0x1ABCL
    (Netpkt.Bytes_util.get_bits b ~bit_off:3 ~width:13)

let test_bits_no_bleed () =
  let b = Bytes.make 4 '\255' in
  Netpkt.Bytes_util.set_bits b ~bit_off:8 ~width:8 0L;
  check Alcotest.int "byte before untouched" 0xff (Netpkt.Bytes_util.get_uint8 b 0);
  check Alcotest.int "target zeroed" 0 (Netpkt.Bytes_util.get_uint8 b 1);
  check Alcotest.int "byte after untouched" 0xff (Netpkt.Bytes_util.get_uint8 b 2)

let test_bits_out_of_range () =
  let b = Bytes.make 2 '\000' in
  Alcotest.check_raises "width 0 rejected"
    (Invalid_argument "Bytes_util: width 0 not in 1..64") (fun () ->
      ignore (Netpkt.Bytes_util.get_bits b ~bit_off:0 ~width:0));
  Alcotest.check_raises "overflow rejected"
    (Invalid_argument "Bytes_util: bit range [10,20) exceeds 2 bytes") (fun () ->
      ignore (Netpkt.Bytes_util.get_bits b ~bit_off:10 ~width:10))

let prop_bits_roundtrip =
  QCheck.Test.make ~name:"set_bits/get_bits roundtrip" ~count:500
    QCheck.(triple (int_bound 40) (int_range 1 64) int64)
    (fun (bit_off, width, v) ->
      let b = Bytes.make 16 '\000' in
      let masked =
        if width = 64 then v
        else Int64.logand v (Int64.sub (Int64.shift_left 1L width) 1L)
      in
      Netpkt.Bytes_util.set_bits b ~bit_off ~width v;
      Int64.equal (Netpkt.Bytes_util.get_bits b ~bit_off ~width) masked)

let prop_bits_preserves_neighbors =
  QCheck.Test.make ~name:"set_bits leaves other bits alone" ~count:300
    QCheck.(triple (int_bound 40) (int_range 1 64) int64)
    (fun (bit_off, width, v) ->
      let b = Bytes.make 16 '\255' in
      Netpkt.Bytes_util.set_bits b ~bit_off ~width v;
      (* All bits outside [bit_off, bit_off+width) must still be 1. *)
      let ok = ref true in
      for i = 0 to 127 do
        if i < bit_off || i >= bit_off + width then begin
          let byte = Netpkt.Bytes_util.get_uint8 b (i / 8) in
          if (byte lsr (7 - (i mod 8))) land 1 <> 1 then ok := false
        end
      done;
      !ok)

(* The immediate-int accessors against the int64 pair: same value, same
   bytes written, and the same range errors, over random (including
   unaligned and out-of-range) offsets and widths. Widths 0 and 63..64
   are out of the int accessors' range and must raise. *)
let outcome f = match f () with v -> Some v | exception Invalid_argument _ -> None

let prop_bits_int_matches =
  QCheck.Test.make ~name:"get_bits_int/set_bits_int = get_bits/set_bits"
    ~count:1000
    QCheck.(quad (int_range (-2) 90) (int_range 0 64) int (string_of_size (Gen.return 10)))
    (fun (bit_off, width, v, init) ->
      let b = Bytes.of_string init in
      let via_int64 =
        if width > 62 then None
        else
          outcome (fun () ->
              Int64.to_int (Netpkt.Bytes_util.get_bits b ~bit_off ~width))
      in
      let read_ok =
        via_int64 = outcome (fun () -> Netpkt.Bytes_util.get_bits_int b ~bit_off ~width)
      in
      let b1 = Bytes.of_string init and b2 = Bytes.of_string init in
      let w1 = outcome (fun () -> Netpkt.Bytes_util.set_bits_int b1 ~bit_off ~width v) in
      let w2 =
        if width > 62 then None
        else
          outcome (fun () ->
              Netpkt.Bytes_util.set_bits b2 ~bit_off ~width (Int64.of_int v))
      in
      read_ok && w1 = w2 && Bytes.equal b1 b2)

let test_bits_int_mac () =
  (* A MAC address is byte-aligned and 48 bits wide: the wide-load path. *)
  let b = Bytes.of_string "\x00\x02\x00\x0a\x00\x00\x01\xff" in
  check Alcotest.int "48-bit read" 0x02000a000001
    (Netpkt.Bytes_util.get_bits_int b ~bit_off:8 ~width:48);
  check Alcotest.int "40-bit read" 0x02000a0000
    (Netpkt.Bytes_util.get_bits_int b ~bit_off:8 ~width:40);
  Netpkt.Bytes_util.set_bits_int b ~bit_off:8 ~width:48 0xfedcba987654;
  check Alcotest.string "48-bit write" "\x00\xfe\xdc\xba\x98\x76\x54\xff"
    (Bytes.to_string b);
  Alcotest.check_raises "63 bits rejected"
    (Invalid_argument "Bytes_util: width 63 not in 1..62") (fun () ->
      ignore (Netpkt.Bytes_util.get_bits_int b ~bit_off:0 ~width:63))

let test_checksum_rfc1071 () =
  (* The classic example from RFC 1071 §3. *)
  let b = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  check Alcotest.int "rfc1071 example" 0x220d
    (Netpkt.Bytes_util.internet_checksum b ~off:0 ~len:8)

let test_checksum_verifies () =
  let ip =
    Netpkt.Ipv4.make ~protocol:6
      ~src:(Netpkt.Ip4.of_string_exn "192.0.2.1")
      ~dst:(Netpkt.Ip4.of_string_exn "198.51.100.2")
      ()
  in
  let b = Bytes.make 20 '\000' in
  Netpkt.Ipv4.encode_into ip b ~off:0;
  check Alcotest.bool "checksum of encoded header verifies" true
    (Netpkt.Ipv4.checksum_valid b ~off:0)

let test_crc32_check_value () =
  (* CRC-32/ISO-HDLC check value: crc32("123456789") = 0xCBF43926. *)
  let b = Bytes.of_string "123456789" in
  check Alcotest.int64 "crc32 check value" 0xCBF43926L
    (Netpkt.Bytes_util.crc32 b ~off:0 ~len:9)

(* The bytewise CRC-32 the word-at-a-time kernel must equal: one table
   step per byte, the table computed bit by bit on the spot, and
   [Bytes.get]'s bounds check on every byte read. *)
let crc32_bytewise ~init b ~off ~len =
  let c = ref (init land 0xFFFFFFFF) in
  for i = off to off + len - 1 do
    let x = ref ((!c lxor Char.code (Bytes.get b i)) land 0xff) in
    for _ = 0 to 7 do
      x := if !x land 1 = 1 then 0xEDB88320 lxor (!x lsr 1) else !x lsr 1
    done;
    c := !x lxor (!c lsr 8)
  done;
  (!c lxor 0xFFFFFFFF) land 0xFFFFFFFF

(* Lengths 0-2,000 at offsets 0-7 (every alignment of the 8-byte step)
   and at arbitrary in-range offsets, under a random [init]. *)
let prop_crc32_bytewise =
  QCheck.Test.make ~name:"crc32_int = bytewise crc32" ~count:1000
    QCheck.(
      quad (int_range 0 2000) (int_range 0 7) (option (int_range 0 2000))
        (pair int (int_range 0 max_int)))
    (fun (len, small_off, any_off, (init, seed)) ->
      let st = Random.State.make [| seed |] in
      let off = match any_off with Some o -> o | None -> small_off in
      let b =
        Bytes.init (off + len + Random.State.int st 9) (fun _ ->
            Char.chr (Random.State.int st 256))
      in
      Netpkt.Bytes_util.crc32_int ~init b ~off ~len = crc32_bytewise ~init b ~off ~len
      && Netpkt.Bytes_util.crc32_int b ~off ~len
         = crc32_bytewise ~init:0xFFFFFFFF b ~off ~len)

(* The range contract: [Invalid_argument] exactly when a byte outside
   the buffer would be read; any [len <= 0] reads nothing and returns
   [init] finalised. *)
let prop_crc32_range =
  QCheck.Test.make ~name:"crc32_int range errors = bytewise" ~count:2000
    QCheck.(triple (int_range 0 24) (int_range (-12) 36) (int_range (-12) 36))
    (fun (n, off, len) ->
      let b = Bytes.init n (fun i -> Char.chr ((i * 37) land 0xff)) in
      let init = 0x1234567 in
      outcome (fun () -> Netpkt.Bytes_util.crc32_int ~init b ~off ~len)
      = outcome (fun () -> crc32_bytewise ~init b ~off ~len))

let test_crc16_check_value () =
  (* CRC-16/ARC check value: 0xBB3D. *)
  let b = Bytes.of_string "123456789" in
  check Alcotest.int64 "crc16 check value" 0xBB3DL
    (Netpkt.Bytes_util.crc16 b ~off:0 ~len:9)

(* --- addresses --- *)

let test_mac_roundtrip () =
  let m = Netpkt.Mac.of_string_exn "aa:bb:cc:dd:ee:0f" in
  check Alcotest.string "mac to_string" "aa:bb:cc:dd:ee:0f" (Netpkt.Mac.to_string m)

let test_mac_bad () =
  check Alcotest.bool "bad mac rejected" true
    (Result.is_error (Netpkt.Mac.of_string "aa:bb:cc:dd:ee"));
  check Alcotest.bool "bad octet rejected" true
    (Result.is_error (Netpkt.Mac.of_string "aa:bb:cc:dd:ee:zz"))

let test_mac_multicast () =
  check Alcotest.bool "broadcast is multicast" true
    (Netpkt.Mac.is_multicast Netpkt.Mac.broadcast);
  check Alcotest.bool "unicast is not" false
    (Netpkt.Mac.is_multicast (Netpkt.Mac.of_string_exn "02:00:00:00:00:01"))

let test_ip_roundtrip () =
  let a = Netpkt.Ip4.of_string_exn "203.0.113.45" in
  check Alcotest.string "ip to_string" "203.0.113.45" (Netpkt.Ip4.to_string a)

let test_ip_bad () =
  check Alcotest.bool "256 rejected" true
    (Result.is_error (Netpkt.Ip4.of_string "1.2.3.256"));
  check Alcotest.bool "short rejected" true
    (Result.is_error (Netpkt.Ip4.of_string "1.2.3"))

let test_prefix_matching () =
  let p = Netpkt.Ip4.prefix_of_string_exn "10.1.0.0/16" in
  check Alcotest.bool "inside" true
    (Netpkt.Ip4.matches p (Netpkt.Ip4.of_string_exn "10.1.200.3"));
  check Alcotest.bool "outside" false
    (Netpkt.Ip4.matches p (Netpkt.Ip4.of_string_exn "10.2.0.1"));
  let all = Netpkt.Ip4.prefix_of_string_exn "0.0.0.0/0" in
  check Alcotest.bool "default route matches anything" true
    (Netpkt.Ip4.matches all (Netpkt.Ip4.of_string_exn "255.255.255.255"))

let test_prefix_normalizes_host_bits () =
  let p = Netpkt.Ip4.prefix (Netpkt.Ip4.of_string_exn "10.1.2.3") 16 in
  check Alcotest.string "host bits cleared" "10.1.0.0/16"
    (Netpkt.Ip4.prefix_to_string p)

(* --- codecs --- *)

let st = Random.State.make [| 99 |]

let random_frame_layers () =
  let src_mac = Netpkt.Mac.random st and dst_mac = Netpkt.Mac.random st in
  let tuple = Netpkt.Flow.random_tuple st in
  Netpkt.Pkt.tcp_flow ~src_mac ~dst_mac ~payload:"hello-dejavu" tuple

let test_pkt_roundtrip_once () =
  let layers = random_frame_layers () in
  let b = Netpkt.Pkt.encode layers in
  match Netpkt.Pkt.decode b with
  | Error e -> Alcotest.fail e
  | Ok decoded ->
      (* Encoding fills length fields, so compare re-encodings. *)
      check Alcotest.bytes "re-encode matches" (Netpkt.Pkt.encode decoded) b

let prop_pkt_roundtrip =
  QCheck.Test.make ~name:"pkt encode/decode roundtrip" ~count:200 QCheck.unit
    (fun () ->
      let layers = random_frame_layers () in
      let b = Netpkt.Pkt.encode layers in
      match Netpkt.Pkt.decode b with
      | Error _ -> false
      | Ok decoded -> Bytes.equal (Netpkt.Pkt.encode decoded) b)

let test_vlan_codec () =
  let v = Netpkt.Vlan.make ~pcp:3 ~vid:1234 Netpkt.Eth.ethertype_ipv4 in
  let b = Bytes.make 4 '\000' in
  Netpkt.Vlan.encode_into v b ~off:0;
  match Netpkt.Vlan.decode b ~off:0 with
  | Error e -> Alcotest.fail e
  | Ok v' -> check Alcotest.bool "vlan roundtrip" true (Netpkt.Vlan.equal v v')

let test_vxlan_codec () =
  let v = Netpkt.Vxlan.make 0xABCDE in
  let b = Bytes.make 8 '\000' in
  Netpkt.Vxlan.encode_into v b ~off:0;
  match Netpkt.Vxlan.decode b ~off:0 with
  | Error e -> Alcotest.fail e
  | Ok v' -> check Alcotest.bool "vxlan roundtrip" true (Netpkt.Vxlan.equal v v')

let test_arp_codec () =
  let a =
    {
      Netpkt.Arp.op = Netpkt.Arp.Request;
      sender_mac = Netpkt.Mac.of_string_exn "02:00:00:00:00:01";
      sender_ip = Netpkt.Ip4.of_string_exn "10.0.0.1";
      target_mac = Netpkt.Mac.zero;
      target_ip = Netpkt.Ip4.of_string_exn "10.0.0.2";
    }
  in
  let b = Bytes.make 28 '\000' in
  Netpkt.Arp.encode_into a b ~off:0;
  match Netpkt.Arp.decode b ~off:0 with
  | Error e -> Alcotest.fail e
  | Ok a' -> check Alcotest.bool "arp roundtrip" true (Netpkt.Arp.equal a a')

let test_decode_truncated () =
  check Alcotest.bool "truncated eth rejected" true
    (Result.is_error (Netpkt.Pkt.decode (Bytes.make 5 '\000')))

let test_udp_vxlan_stack () =
  let inner =
    Netpkt.Pkt.tcp_flow
      ~src_mac:(Netpkt.Mac.of_string_exn "02:00:00:00:00:11")
      ~dst_mac:(Netpkt.Mac.of_string_exn "02:00:00:00:00:22")
      {
        Netpkt.Flow.src = Netpkt.Ip4.of_string_exn "172.16.0.1";
        dst = Netpkt.Ip4.of_string_exn "172.16.0.2";
        proto = Netpkt.Ipv4.proto_tcp;
        src_port = 1000;
        dst_port = 2000;
      }
  in
  let outer =
    [
      Netpkt.Pkt.Eth
        (Netpkt.Eth.make
           ~dst:(Netpkt.Mac.of_string_exn "02:00:00:00:00:33")
           Netpkt.Eth.ethertype_ipv4);
      Netpkt.Pkt.Ipv4
        (Netpkt.Ipv4.make ~protocol:Netpkt.Ipv4.proto_udp
           ~src:(Netpkt.Ip4.of_string_exn "192.0.2.1")
           ~dst:(Netpkt.Ip4.of_string_exn "192.0.2.2")
           ());
      Netpkt.Pkt.Udp
        (Netpkt.Udp.make ~src_port:49152 ~dst_port:Netpkt.Udp.port_vxlan ());
      Netpkt.Pkt.Vxlan (Netpkt.Vxlan.make 5001);
    ]
    @ inner
  in
  let b = Netpkt.Pkt.encode outer in
  match Netpkt.Pkt.decode b with
  | Error e -> Alcotest.fail e
  | Ok decoded ->
      check Alcotest.bool "vxlan stack roundtrip" true
        (Bytes.equal (Netpkt.Pkt.encode decoded) b)

(* --- The 5-tuple read in place against decode: random frames of
   every shape [decode] knows, intact, with bytes overwritten (often
   with a value some discriminator tests for) and truncated. --- *)

let rec frame_layers st ~depth =
  let open Netpkt in
  let et, rest = below_eth st ~depth ~tags:0 in
  Pkt.Eth (Eth.make ~dst:(Mac.random st) ~src:(Mac.random st) et) :: rest

(* The ethertype and the layers under it. *)
and below_eth st ~depth ~tags =
  let open Netpkt in
  let payload () =
    if Random.State.bool st then []
    else [ Pkt.Payload (String.make (1 + Random.State.int st 12) 'p') ]
  in
  match Random.State.int st 12 with
  | (0 | 1) when tags < 2 ->
      let et, rest = below_eth st ~depth ~tags:(tags + 1) in
      (Eth.ethertype_vlan, Pkt.Vlan (Vlan.make ~vid:(Random.State.int st 4096) et) :: rest)
  | (2 | 3) when tags < 2 ->
      (* Byte 19, the next protocol: 1 = IPv4, 2 = 802.1Q, else payload. *)
      let next, rest =
        match Random.State.int st 4 with
        | 0 | 1 -> (1, ipv4_layers st ~depth)
        | 2 ->
            let et, rest = below_eth st ~depth ~tags:(tags + 1) in
            (2, Pkt.Vlan (Vlan.make ~vid:7 et) :: rest)
        | _ -> (3 + Random.State.int st 250, payload ())
      in
      let raw = Bytes.init 20 (fun _ -> Char.chr (Random.State.int st 256)) in
      Bytes.set raw 19 (Char.chr next);
      (Eth.ethertype_sfc, Pkt.Sfc_raw raw :: rest)
  | 4 ->
      ( Eth.ethertype_arp,
        [
          Pkt.Arp
            {
              Arp.op = (if Random.State.bool st then Arp.Request else Arp.Reply);
              sender_mac = Mac.random st;
              sender_ip = Ip4.random st;
              target_mac = Mac.random st;
              target_ip = Ip4.random st;
            };
        ] )
  | 5 -> (0x86DD, payload ())
  | _ -> (Eth.ethertype_ipv4, ipv4_layers st ~depth)

and ipv4_layers st ~depth =
  let open Netpkt in
  let port () = Random.State.int st 65536 in
  let proto = List.nth [ 6; 6; 17; 17; 1; 47 ] (Random.State.int st 6) in
  let l4 =
    match proto with
    | 6 -> [ Pkt.Tcp (Tcp.make ~src_port:(port ()) ~dst_port:(port ()) ()) ]
    | 17 when depth < 1 && Random.State.int st 3 = 0 ->
        Pkt.Udp (Udp.make ~src_port:(port ()) ~dst_port:Udp.port_vxlan ())
        :: Pkt.Vxlan (Vxlan.make (Random.State.int st 0xFFFFFF))
        :: frame_layers st ~depth:(depth + 1)
    | 17 -> [ Pkt.Udp (Udp.make ~src_port:(port ()) ~dst_port:(port ()) ()) ]
    | 1 -> [ Pkt.Icmp { Icmp.typ = 8; code = 0; ident = port (); seq = port () } ]
    | _ -> []
  in
  Pkt.Ipv4 (Ipv4.make ~protocol:proto ~src:(Ip4.random st) ~dst:(Ip4.random st) ())
  :: l4
  @ if Random.State.bool st then [] else [ Pkt.Payload "payload" ]

(* Byte values the decoders test for: IPv4 version/IHL, ethertype
   halves, protocols, the VXLAN port's bytes, SFC next protocols and
   ARP opcodes. *)
let discriminators =
  [| 0x45; 0x46; 0x55; 0x08; 0x00; 0x06; 0x81; 0x89; 0x4F; 0x11; 0x01; 0x02; 0x12; 0xB5; 0x03 |]

let gen_mutated_frame st =
  let b = Netpkt.Pkt.encode (frame_layers st ~depth:0) in
  let n = Bytes.length b in
  if Random.State.int st 3 > 0 then
    for _ = 1 to 1 + Random.State.int st 3 do
      let v =
        if Random.State.bool st then
          discriminators.(Random.State.int st (Array.length discriminators))
        else Random.State.int st 256
      in
      Bytes.set b (Random.State.int st n) (Char.chr v)
    done;
  if Random.State.int st 3 = 0 then Bytes.sub b 0 (Random.State.int st (n + 1)) else b

let tuple_via_decode b =
  match Netpkt.Pkt.decode b with
  | Ok layers -> Netpkt.Pkt.five_tuple_of layers
  | Error _ -> None

let prop_five_tuple_of_frame =
  QCheck.Test.make ~name:"five_tuple_of_frame = five_tuple_of (decode)" ~count:5000
    (QCheck.make
       ~print:(fun b -> Format.asprintf "%a" Netpkt.Bytes_util.pp_hex b)
       gen_mutated_frame)
    (fun b ->
      Option.equal Netpkt.Flow.equal_five_tuple
        (Netpkt.Pkt.five_tuple_of_frame b) (tuple_via_decode b))

(* The generator reaches every outcome: a tuple, a frame that decodes
   without one, and a frame that does not decode. *)
let test_five_tuple_frames_cover () =
  let st = Random.State.make [| 11 |] in
  let tuple = ref 0 and none = ref 0 and bad = ref 0 in
  for _ = 1 to 2000 do
    let b = gen_mutated_frame st in
    match Netpkt.Pkt.decode b with
    | Error _ -> incr bad
    | Ok l -> if Netpkt.Pkt.five_tuple_of l = None then incr none else incr tuple
  done;
  check Alcotest.bool
    (Printf.sprintf "tuples %d, none %d, undecodable %d" !tuple !none !bad)
    true
    (!tuple > 200 && !none > 200 && !bad > 200)

(* The buffer the hash was once folded over: 13 bytes, in order. *)
let hash_via_buffer (t : Netpkt.Flow.five_tuple) =
  let b = Bytes.create 13 in
  Netpkt.Bytes_util.set_uint32 b 0 (Netpkt.Ip4.to_int64 t.Netpkt.Flow.src);
  Netpkt.Bytes_util.set_uint32 b 4 (Netpkt.Ip4.to_int64 t.Netpkt.Flow.dst);
  Netpkt.Bytes_util.set_uint8 b 8 t.Netpkt.Flow.proto;
  Netpkt.Bytes_util.set_uint16 b 9 t.Netpkt.Flow.src_port;
  Netpkt.Bytes_util.set_uint16 b 11 t.Netpkt.Flow.dst_port;
  Netpkt.Bytes_util.crc32 b ~off:0 ~len:13

let prop_hash_five_tuple =
  QCheck.Test.make ~name:"hash_five_tuple = crc32 of its 13 bytes" ~count:2000
    QCheck.(triple int int int)
    (fun (proto, sp, dp) ->
      let st = Random.State.make [| proto; sp; dp |] in
      let small x = if x land 1 = 0 then x land 0x1FFFF else x in
      let t =
        {
          Netpkt.Flow.src = Netpkt.Ip4.random st;
          dst = Netpkt.Ip4.random st;
          proto = small proto;
          src_port = small sp;
          dst_port = small dp;
        }
      in
      Int64.equal (Netpkt.Flow.hash_five_tuple t) (hash_via_buffer t))

(* --- pcap --- *)

let test_pcap_roundtrip () =
  let st = Random.State.make [| 5 |] in
  let packets =
    List.init 5 (fun i ->
        Netpkt.Pcap.packet ~ts_sec:(1700000000 + i) ~ts_usec:(i * 100)
          (Netpkt.Pkt.encode
             (Netpkt.Pkt.tcp_flow ~payload:(String.make i 'x')
                ~src_mac:(Netpkt.Mac.random st) ~dst_mac:(Netpkt.Mac.random st)
                (Netpkt.Flow.random_tuple st))))
  in
  match Netpkt.Pcap.of_bytes (Netpkt.Pcap.to_bytes packets) with
  | Error e -> Alcotest.fail e
  | Ok decoded ->
      check Alcotest.int "record count" 5 (List.length decoded);
      List.iter2
        (fun a b ->
          check Alcotest.int "ts_sec" a.Netpkt.Pcap.ts_sec b.Netpkt.Pcap.ts_sec;
          check Alcotest.bytes "frame" a.Netpkt.Pcap.frame b.Netpkt.Pcap.frame)
        packets decoded

let test_pcap_file_roundtrip () =
  let path = Filename.temp_file "dejavu" ".pcap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let packets = [ Netpkt.Pcap.packet (Bytes.of_string "0123456789abcd") ] in
      Netpkt.Pcap.write_file path packets;
      match Netpkt.Pcap.read_file path with
      | Error e -> Alcotest.fail e
      | Ok [ p ] ->
          check Alcotest.bytes "file roundtrip" (Bytes.of_string "0123456789abcd")
            p.Netpkt.Pcap.frame
      | Ok _ -> Alcotest.fail "wrong record count")

let test_pcap_rejects_garbage () =
  check Alcotest.bool "bad magic rejected" true
    (Result.is_error (Netpkt.Pcap.of_bytes (Bytes.make 40 'z')));
  check Alcotest.bool "truncated rejected" true
    (Result.is_error (Netpkt.Pcap.of_bytes (Bytes.make 10 '\000')))

(* --- flows --- *)

let test_flow_deterministic () =
  let a = Netpkt.Flow.generate Netpkt.Flow.default_spec in
  let b = Netpkt.Flow.generate Netpkt.Flow.default_spec in
  check Alcotest.bool "same spec, same flows" true
    (List.for_all2 Netpkt.Flow.equal_five_tuple a b)

let test_flow_distinct () =
  let flows = Netpkt.Flow.generate { Netpkt.Flow.default_spec with n_flows = 200 } in
  let sorted = List.sort_uniq Netpkt.Flow.compare_five_tuple flows in
  check Alcotest.int "all distinct" 200 (List.length sorted)

let test_flow_subnet () =
  let spec = Netpkt.Flow.default_spec in
  let flows = Netpkt.Flow.generate spec in
  check Alcotest.bool "sources in client subnet" true
    (List.for_all
       (fun t -> Netpkt.Ip4.matches spec.Netpkt.Flow.client_subnet t.Netpkt.Flow.src)
       flows)

let test_hash_matches_layout () =
  (* The flow hash must equal a CRC32 over the 13-byte field layout. *)
  let t =
    {
      Netpkt.Flow.src = Netpkt.Ip4.of_string_exn "1.2.3.4";
      dst = Netpkt.Ip4.of_string_exn "5.6.7.8";
      proto = 6;
      src_port = 0x1234;
      dst_port = 80;
    }
  in
  let b = Bytes.of_string "\x01\x02\x03\x04\x05\x06\x07\x08\x06\x12\x34\x00\x50" in
  check Alcotest.int64 "hash layout" (Netpkt.Bytes_util.crc32 b ~off:0 ~len:13)
    (Netpkt.Flow.hash_five_tuple t)

let () =
  Alcotest.run "netpkt"
    [
      ( "bytes_util",
        [
          Alcotest.test_case "bit roundtrip" `Quick test_bits_roundtrip_simple;
          Alcotest.test_case "no bleed" `Quick test_bits_no_bleed;
          Alcotest.test_case "range errors" `Quick test_bits_out_of_range;
          qtest prop_bits_roundtrip;
          qtest prop_bits_preserves_neighbors;
          qtest prop_bits_int_matches;
          Alcotest.test_case "int accessors on a MAC" `Quick test_bits_int_mac;
          Alcotest.test_case "rfc1071 checksum" `Quick test_checksum_rfc1071;
          Alcotest.test_case "ipv4 checksum verifies" `Quick test_checksum_verifies;
          Alcotest.test_case "crc32 check value" `Quick test_crc32_check_value;
          qtest prop_crc32_bytewise;
          qtest prop_crc32_range;
          Alcotest.test_case "crc16 check value" `Quick test_crc16_check_value;
        ] );
      ( "addresses",
        [
          Alcotest.test_case "mac roundtrip" `Quick test_mac_roundtrip;
          Alcotest.test_case "mac bad input" `Quick test_mac_bad;
          Alcotest.test_case "mac multicast bit" `Quick test_mac_multicast;
          Alcotest.test_case "ip roundtrip" `Quick test_ip_roundtrip;
          Alcotest.test_case "ip bad input" `Quick test_ip_bad;
          Alcotest.test_case "prefix matching" `Quick test_prefix_matching;
          Alcotest.test_case "prefix normalization" `Quick
            test_prefix_normalizes_host_bits;
        ] );
      ( "codecs",
        [
          Alcotest.test_case "frame roundtrip" `Quick test_pkt_roundtrip_once;
          qtest prop_pkt_roundtrip;
          Alcotest.test_case "vlan" `Quick test_vlan_codec;
          Alcotest.test_case "vxlan" `Quick test_vxlan_codec;
          Alcotest.test_case "arp" `Quick test_arp_codec;
          Alcotest.test_case "truncated" `Quick test_decode_truncated;
          Alcotest.test_case "udp/vxlan stack" `Quick test_udp_vxlan_stack;
          qtest prop_five_tuple_of_frame;
          Alcotest.test_case "5-tuple frames reach every outcome" `Quick
            test_five_tuple_frames_cover;
        ] );
      ( "pcap",
        [
          Alcotest.test_case "roundtrip" `Quick test_pcap_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_pcap_file_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_pcap_rejects_garbage;
        ] );
      ( "flows",
        [
          Alcotest.test_case "deterministic" `Quick test_flow_deterministic;
          Alcotest.test_case "distinct" `Quick test_flow_distinct;
          Alcotest.test_case "subnet" `Quick test_flow_subnet;
          Alcotest.test_case "hash layout" `Quick test_hash_matches_layout;
          qtest prop_hash_five_tuple;
        ] );
    ]
