(* SFC header (Fig. 3) codec tests. *)

open Dejavu_core

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let sample =
  {
    Sfc_header.service_path_id = 0x1234;
    service_index = 7;
    in_port = 3;
    out_port = 17;
    resubmit = true;
    recirc = false;
    drop = false;
    mirror = true;
    to_cpu = false;
    context = [| (1, 0xBEEF); (2, 42); (0, 0); (4, 0x7777) |];
    next_protocol = 1;
  }

let test_size () =
  check Alcotest.int "20 bytes on the wire" 20
    (Bytes.length (Sfc_header.encode sample));
  check Alcotest.int "decl is byte-aligned at 20" 20
    (P4ir.Hdr.byte_size Sfc_header.decl)

let test_roundtrip () =
  match Sfc_header.decode (Sfc_header.encode sample) ~off:0 with
  | Error e -> Alcotest.fail e
  | Ok decoded ->
      check Alcotest.bool "encode/decode roundtrip" true
        (Sfc_header.equal sample decoded)

let gen_header =
  QCheck.Gen.(
    map
      (fun ((path, idx, inp, outp), (flags, ctx, proto)) ->
        {
          Sfc_header.service_path_id = path land 0xffff;
          service_index = idx land 0xff;
          in_port = inp land 0x1ff;
          out_port = outp land 0x1ff;
          resubmit = flags land 1 = 1;
          recirc = flags land 2 = 2;
          drop = flags land 4 = 4;
          mirror = flags land 8 = 8;
          to_cpu = flags land 16 = 16;
          context =
            Array.init 4 (fun i ->
                let v = (ctx lsr (i * 6)) land 0x3f in
                (v land 0xf, v * 97 land 0xffff));
          next_protocol = proto land 0xff;
        })
      (pair (quad nat nat nat nat) (triple nat nat nat)))

let prop_roundtrip =
  QCheck.Test.make ~name:"random headers roundtrip" ~count:300
    (QCheck.make gen_header)
    (fun h ->
      match Sfc_header.decode (Sfc_header.encode h) ~off:0 with
      | Error _ -> false
      | Ok decoded -> Sfc_header.equal h decoded)

let prop_phv_roundtrip =
  QCheck.Test.make ~name:"phv roundtrip" ~count:300 (QCheck.make gen_header)
    (fun h ->
      let phv = P4ir.Phv.create [] in
      Sfc_header.to_phv h phv;
      match Sfc_header.of_phv phv with
      | None -> false
      | Some h' -> Sfc_header.equal h h')

(* The by-name oracle: a standalone [Hdr.inst] of [decl], read and
   filled field by field through [Hdr.get]/[Hdr.set]. *)
let by_name_decode b ~off =
  let inst = P4ir.Hdr.inst Sfc_header.decl in
  P4ir.Hdr.extract inst b ~bit_off:(8 * off);
  let get f = P4ir.Bitval.to_int (P4ir.Hdr.get inst f) in
  {
    Sfc_header.service_path_id = get "service_path_id";
    service_index = get "service_index";
    in_port = get "in_port";
    out_port = get "out_port";
    resubmit = get "resubmit_flag" = 1;
    recirc = get "recirc_flag" = 1;
    drop = get "drop_flag" = 1;
    mirror = get "mirror_flag" = 1;
    to_cpu = get "to_cpu_flag" = 1;
    context =
      Array.init 4 (fun i ->
          ( get (Printf.sprintf "ctx_key%d" i),
            get (Printf.sprintf "ctx_val%d" i) ));
    next_protocol = get "next_protocol";
  }

let by_name_encode (h : Sfc_header.t) =
  let inst = P4ir.Hdr.inst Sfc_header.decl in
  let set f v = P4ir.Hdr.set inst f (P4ir.Bitval.of_int ~width:64 v) in
  let setb f b = set f (if b then 1 else 0) in
  set "service_path_id" h.service_path_id;
  set "service_index" h.service_index;
  set "in_port" h.in_port;
  set "out_port" h.out_port;
  setb "resubmit_flag" h.resubmit;
  setb "recirc_flag" h.recirc;
  setb "drop_flag" h.drop;
  setb "mirror_flag" h.mirror;
  setb "to_cpu_flag" h.to_cpu;
  Array.iteri
    (fun i (k, v) ->
      set (Printf.sprintf "ctx_key%d" i) k;
      set (Printf.sprintf "ctx_val%d" i) v)
    h.context;
  set "next_protocol" h.next_protocol;
  let b = Bytes.make Sfc_header.byte_size '\000' in
  P4ir.Hdr.emit inst b ~bit_off:0;
  b

(* Headers whose values are any int, negative ones included, so most
   are wider than their fields. *)
let gen_wide_header =
  QCheck.Gen.(
    let* v = array_size (return 14) int in
    return
      {
        Sfc_header.service_path_id = v.(0);
        service_index = v.(1);
        in_port = v.(2);
        out_port = v.(3);
        resubmit = v.(4) land 1 = 1;
        recirc = v.(4) land 2 = 2;
        drop = v.(4) land 4 = 4;
        mirror = v.(4) land 8 = 8;
        to_cpu = v.(4) land 16 = 16;
        context = Array.init 4 (fun i -> (v.(5 + (2 * i)), v.(6 + (2 * i))));
        next_protocol = v.(13);
      })

(* The positional codec against the by-name one: [decode] of random
   bytes at a random offset, and [encode] of a header with any values. *)
let prop_positional_matches_by_name =
  let gen =
    QCheck.Gen.(
      let* off = int_bound 12 in
      let* tail = int_bound 4 in
      let* raw = string_size (return (off + Sfc_header.byte_size + tail)) in
      let* h = gen_wide_header in
      return (Bytes.of_string raw, off, h))
  in
  let print (b, off, h) =
    Format.asprintf "off=%d %a@.%a" off Netpkt.Bytes_util.pp_hex b
      Sfc_header.pp h
  in
  QCheck.Test.make ~name:"positional codec = by-name Hdr.inst" ~count:1000
    (QCheck.make ~print gen)
    (fun (b, off, h) ->
      (match Sfc_header.decode b ~off with
      | Ok d -> Sfc_header.equal d (by_name_decode b ~off)
      | Error _ -> false)
      && Bytes.equal (Sfc_header.encode h) (by_name_encode h))

let test_of_phv_invalid () =
  let phv = P4ir.Phv.create [ Sfc_header.decl ] in
  check Alcotest.bool "invalid header -> None" true
    (Sfc_header.of_phv phv = None)

let test_context_lookup () =
  check Alcotest.(option int) "tenant ctx" (Some 0xBEEF)
    (Sfc_header.find_context sample 1);
  check Alcotest.(option int) "missing key" None (Sfc_header.find_context sample 9);
  check Alcotest.(option int) "zero key never matches" None
    (Sfc_header.find_context sample 0)

let test_decode_truncated () =
  check Alcotest.bool "truncated rejected" true
    (Result.is_error (Sfc_header.decode (Bytes.make 10 '\000') ~off:0));
  check Alcotest.bool "negative offset rejected, not raised" true
    (Result.is_error (Sfc_header.decode (Bytes.make 64 '\000') ~off:(-4)))

let test_next_protocol_position () =
  (* The wire position of next_protocol must match what Netpkt.Pkt's
     decoder peeks at (byte 19). *)
  let b = Sfc_header.encode { sample with next_protocol = 0xAB } in
  check Alcotest.int "byte 19" 0xAB (Netpkt.Bytes_util.get_uint8 b 19)

let () =
  Alcotest.run "sfc_header"
    [
      ( "codec",
        [
          Alcotest.test_case "size" `Quick test_size;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          qtest prop_roundtrip;
          qtest prop_phv_roundtrip;
          qtest prop_positional_matches_by_name;
          Alcotest.test_case "invalid phv" `Quick test_of_phv_invalid;
          Alcotest.test_case "context lookup" `Quick test_context_lookup;
          Alcotest.test_case "truncated" `Quick test_decode_truncated;
          Alcotest.test_case "next_protocol position" `Quick
            test_next_protocol_position;
        ] );
    ]
