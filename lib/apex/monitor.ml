module Cpu = Dialed_msp430.Cpu
module Memory = Dialed_msp430.Memory

type violation =
  | Entered_er_mid of int
  | Left_er_early of int
  | Write_to_er of int
  | Irq_in_er
  | Dma_in_er of int
  | Or_written_outside of int
  | Er_written_at_rest of int

type phase = Idle | Running

type t = {
  layout : Layout.t;
  mutable phase : phase;
  mutable exec : bool;
  mutable violations_rev : violation list;
}

let create layout = { layout; phase = Idle; exec = false; violations_rev = [] }

let violate t v = t.violations_rev <- v :: t.violations_rev

let write_addrs info =
  List.filter_map
    (fun a ->
       match a.Memory.kind with
       | Memory.Write ->
         (* word writes touch addr and addr+1 *)
         Some
           (match a.Memory.size with
            | Dialed_msp430.Isa.Word -> [ a.Memory.addr; a.Memory.addr + 1 ]
            | Dialed_msp430.Isa.Byte -> [ a.Memory.addr ])
       | Memory.Read | Memory.Fetch -> None)
    info.Cpu.accesses
  |> List.concat

let observe_at_rest t info =
  (* outside an ER run: watch for illegal entry and for ER/OR mutation *)
  List.iter
    (fun addr ->
       if Layout.in_er t.layout addr then begin
         t.exec <- false;
         violate t (Er_written_at_rest addr)
       end
       else if Layout.in_or t.layout addr then begin
         t.exec <- false;
         violate t (Or_written_outside addr)
       end)
    (write_addrs info)

let observe_running t info =
  if info.Cpu.irq_taken then begin
    violate t Irq_in_er;
    t.phase <- Idle
  end
  else begin
    let bad_write =
      List.find_opt (fun addr -> Layout.in_er t.layout addr) (write_addrs info)
    in
    (match bad_write with
     | Some addr ->
       violate t (Write_to_er addr);
       t.phase <- Idle
     | None -> ());
    if t.phase = Running && not (Layout.in_er t.layout info.Cpu.pc_after) then begin
      if info.Cpu.pc_before = t.layout.Layout.er_exit then begin
        (* clean completion: first-to-last instruction, untampered *)
        t.phase <- Idle;
        t.exec <- true
      end
      else begin
        violate t (Left_er_early info.Cpu.pc_before);
        t.phase <- Idle
      end
    end
  end

let observe t info =
  match t.phase with
  | Running -> observe_running t info
  | Idle ->
    if Layout.in_er t.layout info.Cpu.pc_before then begin
      if info.Cpu.pc_before = t.layout.Layout.er_min then begin
        (* a fresh execution attempt begins; EXEC is re-earned *)
        t.phase <- Running;
        t.exec <- false;
        observe_running t info
      end
      else begin
        t.exec <- false;
        violate t (Entered_er_mid info.Cpu.pc_before);
        observe_at_rest t info
      end
    end
    else observe_at_rest t info

let non_cpu_write t ~addr ~running_violation =
  match t.phase with
  | Running ->
    violate t (running_violation addr);
    t.phase <- Idle
  | Idle ->
    if Layout.in_er t.layout addr then begin
      t.exec <- false;
      violate t (Er_written_at_rest addr)
    end
    else if Layout.in_or t.layout addr then begin
      t.exec <- false;
      violate t (Or_written_outside addr)
    end

let dma_event t ~addr = non_cpu_write t ~addr ~running_violation:(fun a -> Dma_in_er a)

let host_write_event t ~addr =
  non_cpu_write t ~addr ~running_violation:(fun a -> Dma_in_er a)

let exec_flag t = t.exec
let running t = t.phase = Running
let violations t = List.rev t.violations_rev

let reset t =
  t.phase <- Idle;
  t.exec <- false;
  t.violations_rev <- []
