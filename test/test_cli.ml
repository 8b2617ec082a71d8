(* The CLI's normalized exit codes: 0 = verified/ok, 1 =
   rejected/findings, 2 = usage/IO error — uniform across commands, so
   scripts and CI can branch on the status alone. *)

let cli =
  (* the test binary runs in _build/default/test; the CLI is a sibling *)
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/dialed_cli.exe"

let run args =
  let cmd =
    Printf.sprintf "%s %s >/dev/null 2>&1" (Filename.quote cli) args
  in
  match Sys.command cmd with
  | 127 -> Alcotest.failf "CLI not found at %s" cli
  | code -> code

let check_code what expected args =
  Alcotest.(check int) what expected (run args)

let test_success_is_zero () =
  check_code "list" 0 "list";
  check_code "compile" 0 "compile --app fire-sensor";
  check_code "attest accepted" 0 "attest --app fire-sensor";
  check_code "lint clean" 0 "lint --all";
  check_code "fleet clean" 0 "fleet --count 2 --domains 1"

let test_rejection_is_one () =
  (* uninstrumented binaries fail the audit: findings, not usage error *)
  check_code "lint findings" 1 "lint --app fire-sensor --variant unmodified";
  (* tampered fleet members are rejected *)
  check_code "fleet tampered" 1 "fleet --count 2 --domains 1 --tamper 1"

let test_usage_error_is_two () =
  check_code "unknown app" 2 "attest --app no-such-app";
  check_code "unknown flag" 2 "attest --bogus-flag";
  check_code "missing source" 2 "compile";
  check_code "unknown command" 2 "frobnicate";
  check_code "bad variant" 2 "run --app fire-sensor --variant nonsense"

let test_help_is_zero () =
  check_code "top-level help" 0 "--help";
  check_code "subcommand help" 0 "serve --help";
  check_code "version" 0 "--version"

let test_lint_flags () =
  (* the selective discipline and the dataflow switch stay exit-0 on
     clean in-tree binaries *)
  check_code "lint selective" 0 "lint --all --selective";
  check_code "lint no-dataflow" 0 "lint --all --no-dataflow";
  (* a non-positive loop bound is a usage error, not a finding *)
  check_code "loop-bound zero" 2 "lint --all --loop-bound 0";
  check_code "loop-bound negative" 2 "lint --all --loop-bound=-3"

let test_lint_sarif_output () =
  let path = Filename.temp_file "dialed-lint" ".sarif" in
  let code = run (Printf.sprintf "lint --all --sarif %s" (Filename.quote path)) in
  Alcotest.(check int) "lint --sarif exits 0" 0 code;
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "sarif file non-empty" true (len > 0);
  let contains needle =
    let nh = String.length body and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub body i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "sarif file carries the 2.1.0 header" true
    (contains "2.1.0");
  Alcotest.(check bool) "one run per linted app" true
    (contains "fire-sensor.bin")

let test_serve_smoke () =
  (* ephemeral port, fixed duration: starts, serves nothing, exits 0 *)
  check_code "serve window" 0 "serve --port 0 --duration 0.2 --domains 1"

(* A live gateway for the prover cases: [serve --port 0] names its bound
   port on its first line and serves until SIGINT, after which it prints
   its stats and exits 0. *)
let with_gateway args f =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process cli
      (Array.of_list ([ cli; "serve"; "--port"; "0" ] @ args))
      Unix.stdin out_w null
  in
  Unix.close out_w;
  Unix.close null;
  let ic = Unix.in_channel_of_descr out_r in
  let stop () =
    Unix.kill pid Sys.sigint;
    let rec reap n =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when n > 0 -> Unix.sleepf 0.05; reap (n - 1)
      | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Alcotest.fail "gateway ignored SIGINT"
      | _, status -> status
    in
    let status = reap 200 in
    close_in ic;
    Alcotest.(check bool) "gateway exits 0 on SIGINT" true
      (status = Unix.WEXITED 0)
  in
  match
    Scanf.sscanf (input_line ic) "gateway: firmware %_s on 127.0.0.1:%d" Fun.id
  with
  | port -> Fun.protect ~finally:stop (fun () -> f port)
  | exception e -> stop (); raise e

let test_prover_exit_codes () =
  with_gateway [] (fun port ->
      let prover what expected args =
        check_code what expected (Printf.sprintf "prover --port %d %s" port args)
      in
      prover "legacy accepted" 0 "--rounds 2";
      prover "legacy tampered" 1 "--rounds 2 --tamper";
      prover "pipelined accepted" 0 "--rounds 3 --pipeline 2";
      prover "pipelined tampered" 1 "--rounds 2 --pipeline 2 --tamper";
      prover "firmware without --pipeline" 2 "--rounds 1 --firmware 1.0");
  with_gateway [ "--no-anonymous" ] (fun port ->
      let prover what args =
        check_code what 1 (Printf.sprintf "prover --port %d %s" port args)
      in
      prover "legacy denied" "--rounds 1";
      prover "pipelined denied" "--rounds 1 --pipeline 2")

let suites =
  [ ("cli-exit-codes",
     [ Alcotest.test_case "success -> 0" `Quick test_success_is_zero;
       Alcotest.test_case "rejection -> 1" `Quick test_rejection_is_one;
       Alcotest.test_case "usage error -> 2" `Quick test_usage_error_is_two;
       Alcotest.test_case "help/version -> 0" `Quick test_help_is_zero;
       Alcotest.test_case "lint flags" `Quick test_lint_flags;
       Alcotest.test_case "lint sarif output" `Quick test_lint_sarif_output;
       Alcotest.test_case "serve smoke" `Quick test_serve_smoke;
       Alcotest.test_case "prover against a live gateway" `Quick
         test_prover_exit_codes ]) ]
