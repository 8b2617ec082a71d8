(* SHA-256 / HMAC-SHA256 against FIPS and RFC 4231 test vectors, plus
   incremental-update properties. *)

module Sha256 = Dialed_crypto.Sha256
module Hmac = Dialed_crypto.Hmac

let check_str = Alcotest.(check string)

let test_sha256_vectors () =
  check_str "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hex (Sha256.digest ""));
  check_str "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hex (Sha256.digest "abc"));
  check_str "two-block message"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hex
       (Sha256.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
  check_str "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex (Sha256.digest (String.make 1_000_000 'a')));
  (* NIST 896-bit (two-block) message *)
  check_str "896-bit message"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    (Sha256.hex
       (Sha256.digest
          "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
           ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"))

let test_sha256_block_boundaries () =
  (* lengths straddling the 55/56/64-byte padding boundaries *)
  let golden =
    [ (55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
      (56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
      (57, "f13b2d724659eb3bf47f2dd6af1accc87b81f09f59f2b75e5c0bed6589dfe8c6");
      (64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
      (65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0") ]
  in
  List.iter
    (fun (len, expect) ->
       check_str (Printf.sprintf "len %d" len) expect
         (Sha256.hex (Sha256.digest (String.make len 'a'))))
    golden

let test_incremental () =
  let msg = "The quick brown fox jumps over the lazy dog" in
  let whole = Sha256.digest msg in
  let split_at n =
    let a = String.sub msg 0 n and b = String.sub msg n (String.length msg - n) in
    Sha256.finalize (Sha256.update (Sha256.update (Sha256.init ()) a) b)
  in
  for n = 0 to String.length msg do
    check_str (Printf.sprintf "split %d" n) (Sha256.hex whole) (Sha256.hex (split_at n))
  done

let test_hmac_rfc4231 () =
  (* RFC 4231 test case 1 *)
  check_str "tc1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.hex (Hmac.mac ~key:(String.make 20 '\x0b') "Hi There"));
  (* test case 2: short key "Jefe" *)
  check_str "tc2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.hex (Hmac.mac ~key:"Jefe" "what do ya want for nothing?"));
  (* test case 3: 20x 0xaa key, 50x 0xdd data *)
  check_str "tc3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hmac.hex (Hmac.mac ~key:(String.make 20 '\xaa') (String.make 50 '\xdd')));
  (* test case 6: key longer than the block size *)
  check_str "tc6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.hex
       (Hmac.mac ~key:(String.make 131 '\xaa')
          "Test Using Larger Than Block-Size Key - Hash Key First"))

let test_mac_parts () =
  let key = "secret" in
  check_str "parts = concatenation"
    (Hmac.hex (Hmac.mac ~key "abcdef"))
    (Hmac.hex (Hmac.mac_parts ~key [ "ab"; "cd"; "ef" ]))

let test_verify () =
  let key = "k" and msg = "m" in
  let tag = Hmac.mac ~key msg in
  Alcotest.(check bool) "accepts valid" true (Hmac.verify ~key ~msg ~tag);
  let bad = String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) tag in
  Alcotest.(check bool) "rejects flipped bit" false (Hmac.verify ~key ~msg ~tag:bad);
  Alcotest.(check bool) "rejects truncation" false
    (Hmac.verify ~key ~msg ~tag:(String.sub tag 0 16));
  Alcotest.(check bool) "rejects wrong key" false
    (Hmac.verify ~key:"other" ~msg ~tag)

let test_equal () =
  let tag = Hmac.mac ~key:"k" "m" in
  let flip i =
    String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 0x80) else c) tag
  in
  let check name expect a b =
    Alcotest.(check bool) name expect (Hmac.equal a b)
  in
  check "equal tokens" true tag (String.sub tag 0 32);
  check "empty strings" true "" "";
  check "first byte differs" false tag (flip 0);
  check "last byte differs" false tag (flip 31);
  check "truncated" false tag (String.sub tag 0 31);
  check "extended" false tag (tag ^ "\000");
  check "empty vs tag" false "" tag

let test_copy_independence () =
  (* [update] mutates in place, so forks must be taken with [copy] — and
     a fork must never disturb its origin or siblings *)
  let base = Sha256.update (Sha256.init ()) "shared prefix " in
  let left = Sha256.copy base and right = Sha256.copy base in
  check_str "left branch"
    (Sha256.hex (Sha256.digest "shared prefix left"))
    (Sha256.hex (Sha256.finalize (Sha256.update left "left")));
  check_str "right branch"
    (Sha256.hex (Sha256.digest "shared prefix right"))
    (Sha256.hex (Sha256.finalize (Sha256.update right "right")));
  (* finalize is non-destructive: a finalized ctx can keep absorbing *)
  check_str "continue after finalize"
    (Sha256.hex (Sha256.digest "shared prefix left-more"))
    (Sha256.hex (Sha256.finalize (Sha256.update left "-more")));
  (* and the origin never saw any of it *)
  check_str "origin undisturbed"
    (Sha256.hex (Sha256.digest "shared prefix tail"))
    (Sha256.hex (Sha256.finalize (Sha256.update base "tail")))

let test_key_state () =
  let key = String.make 20 '\x0b' in
  let ks = Hmac.key_state ~key in
  check_str "key_state = mac"
    (Hmac.hex (Hmac.mac ~key "Hi There"))
    (Hmac.hex (Hmac.mac_with ks "Hi There"));
  check_str "key_state parts = mac"
    (Hmac.hex (Hmac.mac ~key "Hi There"))
    (Hmac.hex (Hmac.mac_parts_with ks [ "Hi "; "There" ]));
  (* the precomputed state is reusable across messages *)
  check_str "key_state reuse"
    (Hmac.hex (Hmac.mac ~key "second message"))
    (Hmac.hex (Hmac.mac_with ks "second message"))

let prop_incremental_equals_oneshot =
  QCheck.Test.make ~name:"incremental = one-shot" ~count:200
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 0 300)) (int_range 0 300))
    (fun (s, cut) ->
       let cut = min cut (String.length s) in
       let a = String.sub s 0 cut and b = String.sub s cut (String.length s - cut) in
       Sha256.finalize (Sha256.update (Sha256.update (Sha256.init ()) a) b)
       = Sha256.digest s)

let prop_partition_equals_oneshot =
  (* any way of slicing a message into consecutive chunks and streaming
     them through [update] must give the one-shot digest *)
  QCheck.Test.make ~name:"random partition = one-shot" ~count:300
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 0 400))
              (list_of_size (QCheck.Gen.int_range 0 12) (int_range 0 400)))
    (fun (s, cuts) ->
       let n = String.length s in
       let cuts = List.sort_uniq compare (0 :: n :: List.map (fun c -> min c n) cuts) in
       let rec chunks = function
         | a :: (b :: _ as rest) -> String.sub s a (b - a) :: chunks rest
         | _ -> []
       in
       let ctx =
         List.fold_left Sha256.update (Sha256.init ()) (chunks cuts)
       in
       Sha256.finalize ctx = Sha256.digest s)

(* The kernel against the OCaml reference: messages of 0-5 blocks,
   streamed through [update] in chunks cut at random points, so both
   the buffered partial block and the multi-block kernel call are hit. *)
let prop_kernel_equals_reference =
  QCheck.Test.make ~name:"kernel = reference" ~count:500
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 0 (5 * 64)))
              (list_of_size (QCheck.Gen.int_range 0 6) (int_range 0 320)))
    (fun (s, cuts) ->
       let n = String.length s in
       let cuts = List.sort_uniq compare (0 :: n :: List.map (fun c -> min c n) cuts) in
       let rec chunks = function
         | a :: (b :: _ as rest) -> String.sub s a (b - a) :: chunks rest
         | _ -> []
       in
       Sha256.finalize (List.fold_left Sha256.update (Sha256.init ()) (chunks cuts))
       = Sha256.reference_digest s)

let test_kernel_equals_reference =
  if Sha256.accelerated then QCheck_alcotest.to_alcotest prop_kernel_equals_reference
  else
    Alcotest.test_case "kernel = reference" `Quick (fun () ->
        print_endline "skipped: this CPU has no SHA extensions, so the kernel is not selected")

(* Systhreads of one domain hashing at once through the OCaml path: the
   tick thread (every 50 ms) preempts them mid-block, so any scratch
   state shared between contexts would corrupt digests here. The
   workers run for several ticks. *)
let test_reference_threads () =
  let msgs =
    List.init 4 (fun i -> String.init (16 * 1024) (fun j -> Char.chr ((i * 31 + j) land 0xFF)))
  in
  let expected = List.map Sha256.reference_digest msgs in
  let mismatches = Atomic.make 0 in
  let deadline = Unix.gettimeofday () +. 0.3 in
  let worker (msg, want) =
    while Unix.gettimeofday () < deadline do
      if not (String.equal (Sha256.reference_digest msg) want) then
        Atomic.incr mismatches
    done
  in
  List.map (Thread.create worker) (List.combine msgs expected)
  |> List.iter Thread.join;
  Alcotest.(check int) "digests that differ from single-threaded" 0
    (Atomic.get mismatches)

let prop_distinct_messages_distinct_macs =
  QCheck.Test.make ~name:"mac respects message identity" ~count:200
    QCheck.(pair small_string small_string)
    (fun (a, b) ->
       if a = b then Hmac.mac ~key:"k" a = Hmac.mac ~key:"k" b
       else Hmac.mac ~key:"k" a <> Hmac.mac ~key:"k" b)

let suites =
  [ ("crypto",
     [ Alcotest.test_case "sha256 FIPS vectors" `Quick test_sha256_vectors;
       Alcotest.test_case "sha256 padding boundaries" `Quick test_sha256_block_boundaries;
       Alcotest.test_case "sha256 incremental" `Quick test_incremental;
       Alcotest.test_case "hmac RFC 4231" `Quick test_hmac_rfc4231;
       Alcotest.test_case "mac_parts" `Quick test_mac_parts;
       Alcotest.test_case "ctx copy independence" `Quick test_copy_independence;
       Alcotest.test_case "precomputed key state" `Quick test_key_state;
       Alcotest.test_case "verify" `Quick test_verify;
       Alcotest.test_case "constant-time equal" `Quick test_equal;
       test_kernel_equals_reference;
       Alcotest.test_case "reference across threads" `Quick test_reference_threads ]
     @ List.map QCheck_alcotest.to_alcotest
         [ prop_incremental_equals_oneshot; prop_partition_equals_oneshot;
           prop_distinct_messages_distinct_macs ]) ]
