module M = Dialed_msp430
module Memory = M.Memory

type t = Verifier.policy

let make policy_name check = { Verifier.policy_name; check }

let all_of name subs =
  make name (fun trace ->
      List.fold_left
        (fun acc p ->
           match acc with
           | Error _ -> acc
           | Ok () ->
             (match p.Verifier.check trace with
              | Ok () -> Ok ()
              | Error e ->
                Error (Printf.sprintf "%s: %s" p.Verifier.policy_name e)))
        (Ok ()) subs)

let any_of name subs =
  make name (fun trace ->
      let rec try_each remaining =
        match remaining with
        | [] -> Error "no alternative passed"
        | p :: rest ->
          (match p.Verifier.check trace with
           | Ok () -> Ok ()
           | Error _ -> try_each rest)
      in
      try_each subs)

let negate name p =
  make name (fun trace ->
      match p.Verifier.check trace with
      | Ok () -> Error (Printf.sprintf "%s passed" p.Verifier.policy_name)
      | Error _ -> Ok ())

let final_word ~name ~addr ~expect =
  make name (fun trace ->
      let v = Memory.peek16 trace.Verifier.replay_memory addr in
      if v = expect then Ok ()
      else
        Error
          (Printf.sprintf "memory[0x%04x] = 0x%04x, expected 0x%04x" addr v
             expect))

let count_writes trace addr =
  List.fold_left
    (fun acc step ->
       acc
       + List.length
           (List.filter
              (fun a ->
                 match a.Memory.kind with
                 | Memory.Write ->
                   let lo = a.Memory.addr in
                   let hi =
                     match a.Memory.size with
                     | M.Isa.Word -> lo + 1
                     | M.Isa.Byte -> lo
                   in
                   addr >= lo && addr <= hi
                 | Memory.Read | Memory.Fetch -> false)
              step.Verifier.s_accesses))
    0 trace.Verifier.steps

let writes_to ~name ~addr ~max_count =
  make name (fun trace ->
      let n = count_writes trace addr in
      if n <= max_count then Ok ()
      else
        Error
          (Printf.sprintf "0x%04x written %d times (limit %d)" addr n
             max_count))

let never_writes ~name ~lo ~hi =
  make name (fun trace ->
      let bad =
        List.exists
          (fun step ->
             List.exists
               (fun a ->
                  match a.Memory.kind with
                  | Memory.Write -> a.Memory.addr >= lo && a.Memory.addr <= hi
                  | Memory.Read | Memory.Fetch -> false)
               step.Verifier.s_accesses)
          trace.Verifier.steps
      in
      if bad then
        Error (Printf.sprintf "a store touched [0x%04x, 0x%04x]" lo hi)
      else Ok ())

let argument trace i =
  if i < 0 || i > 7 then None
  else List.nth_opt trace.Verifier.inputs (8 - i)

let arg_range ~name ~arg ~lo ~hi =
  make name (fun trace ->
      match argument trace arg with
      | None -> Error (Printf.sprintf "no argument %d" arg)
      | Some v ->
        let v = M.Word.signed16 v in
        if v >= lo && v <= hi then Ok ()
        else
          Error (Printf.sprintf "argument %d = %d outside [%d, %d]" arg v lo hi))

let max_steps ~name limit =
  make name (fun trace ->
      let n = List.length trace.Verifier.steps in
      if n <= limit then Ok ()
      else Error (Printf.sprintf "%d instructions exceed the budget of %d" n limit))
