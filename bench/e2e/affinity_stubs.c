/* CPU affinity for the benchmark's two processes. Without pinning, the
   scheduler keeps the driver and the gateway (a tightly coupled
   waker/wakee pair) on one CPU while the other idles. */

#define _GNU_SOURCE
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

#ifdef __linux__
#include <sched.h>
#endif

/* The CPUs this process may run on, in ascending order; empty where
   affinity is not available. */
value e2e_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(res);
#ifdef __linux__
  cpu_set_t set;
  int cpu, n = 0, i = 0;
  if (sched_getaffinity(0, sizeof set, &set) != 0) CAMLreturn(Atom(0));
  for (cpu = 0; cpu < CPU_SETSIZE; cpu++)
    if (CPU_ISSET(cpu, &set)) n++;
  if (n == 0) CAMLreturn(Atom(0));
  res = caml_alloc_tuple(n);
  for (cpu = 0; cpu < CPU_SETSIZE; cpu++)
    if (CPU_ISSET(cpu, &set)) Store_field(res, i++, Val_int(cpu));
  CAMLreturn(res);
#else
  (void)unit;
  CAMLreturn(Atom(0));
#endif
}

/* Restrict the calling process to one CPU; false if that failed. */
value e2e_pin_cpu(value vcpu)
{
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(vcpu), &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
#else
  (void)vcpu;
  return Val_false;
#endif
}
