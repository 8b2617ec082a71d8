/* Readiness primitives for the event-loop gateway.

   The OCaml stdlib only exposes Unix.select, whose fd_set caps file
   descriptors at FD_SETSIZE (1024) -- a silent scalability cliff for a
   gateway holding thousands of prover connections.  These stubs expose
   poll(2) (portable, no fd ceiling) and, on Linux, epoll (O(ready)
   instead of O(registered) per wait).

   Event bits shared with rawpoll.ml: 1 = readable, 2 = writable.
   Error/hangup conditions are folded into "readable" so the caller's
   read path observes EOF/ECONNRESET the usual way. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/threads.h>
#include <caml/unixsupport.h>
#include <errno.h>
#include <poll.h>
#include <stdlib.h>
#include <string.h>

#ifdef __linux__
#include <sys/epoll.h>
#define DIALED_HAVE_EPOLL 1
#endif

#define DIALED_EV_READ 1
#define DIALED_EV_WRITE 2

/* Hard cap on events surfaced per wait; level-triggered registration
   means anything beyond the cap simply resurfaces on the next wait. */
#define DIALED_MAX_EVENTS 512

value dialed_has_epoll(value unit)
{
  (void)unit;
#ifdef DIALED_HAVE_EPOLL
  return Val_true;
#else
  return Val_false;
#endif
}

value dialed_epoll_create(value unit)
{
  (void)unit;
#ifdef DIALED_HAVE_EPOLL
  int fd = epoll_create1(EPOLL_CLOEXEC);
  if (fd == -1) caml_uerror("epoll_create1", Nothing);
  return Val_int(fd);
#else
  caml_invalid_argument("epoll unavailable on this platform");
#endif
}

/* op: 0 = add, 1 = mod, 2 = del */
value dialed_epoll_ctl(value vepfd, value vop, value vfd, value vmask)
{
#ifdef DIALED_HAVE_EPOLL
  static const int ops[3] = { EPOLL_CTL_ADD, EPOLL_CTL_MOD, EPOLL_CTL_DEL };
  struct epoll_event ev;
  memset(&ev, 0, sizeof ev);
  ev.data.fd = Int_val(vfd);
  if (Int_val(vmask) & DIALED_EV_READ) ev.events |= EPOLLIN;
  if (Int_val(vmask) & DIALED_EV_WRITE) ev.events |= EPOLLOUT;
  if (epoll_ctl(Int_val(vepfd), ops[Int_val(vop)], Int_val(vfd), &ev) == -1)
    caml_uerror("epoll_ctl", Nothing);
  return Val_unit;
#else
  (void)vepfd; (void)vop; (void)vfd; (void)vmask;
  caml_invalid_argument("epoll unavailable on this platform");
#endif
}

/* out is an int array of (fd, events) pairs; returns the pair count.
   A wait interrupted by a signal returns 0 (the caller just loops). */
value dialed_epoll_wait(value vepfd, value vtimeout_ms, value out)
{
#ifdef DIALED_HAVE_EPOLL
  struct epoll_event evs[DIALED_MAX_EVENTS];
  int epfd = Int_val(vepfd);
  int timeout = Int_val(vtimeout_ms);
  int max = (int)(Wosize_val(out) / 2);
  int n, i;
  if (max > DIALED_MAX_EVENTS) max = DIALED_MAX_EVENTS;
  if (max < 1) caml_invalid_argument("epoll_wait: out array too small");
  caml_release_runtime_system();
  n = epoll_wait(epfd, evs, max, timeout);
  caml_acquire_runtime_system();
  if (n == -1) {
    if (errno == EINTR) return Val_int(0);
    caml_uerror("epoll_wait", Nothing);
  }
  for (i = 0; i < n; i++) {
    int bits = 0;
    if (evs[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) bits |= DIALED_EV_READ;
    if (evs[i].events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) bits |= DIALED_EV_WRITE;
    Store_field(out, 2 * i, Val_int(evs[i].data.fd));
    Store_field(out, 2 * i + 1, Val_int(bits));
  }
  return Val_int(n);
#else
  (void)vepfd; (void)vtimeout_ms; (void)out;
  caml_invalid_argument("epoll unavailable on this platform");
#endif
}

/* Portable readiness wait: fds is an int array of (fd, interest) pairs
   (the first nfds pairs are live), out collects (fd, events) pairs of
   the ready subset.  No FD_SETSIZE anywhere. */
value dialed_poll(value fds, value vnfds, value vtimeout_ms, value out)
{
  int nfds = Int_val(vnfds);
  int timeout = Int_val(vtimeout_ms);
  int out_max = (int)(Wosize_val(out) / 2);
  struct pollfd *pfds;
  int n, i, k;
  if (nfds < 0 || (value)(2 * nfds) > (value)Wosize_val(fds))
    caml_invalid_argument("poll: fd array too small");
  pfds = (struct pollfd *)malloc(sizeof(struct pollfd) * (nfds > 0 ? nfds : 1));
  if (pfds == NULL) caml_raise_out_of_memory();
  for (i = 0; i < nfds; i++) {
    int interest = Int_val(Field(fds, 2 * i + 1));
    pfds[i].fd = Int_val(Field(fds, 2 * i));
    pfds[i].events = 0;
    if (interest & DIALED_EV_READ) pfds[i].events |= POLLIN;
    if (interest & DIALED_EV_WRITE) pfds[i].events |= POLLOUT;
    pfds[i].revents = 0;
  }
  caml_release_runtime_system();
  n = poll(pfds, (nfds_t)nfds, timeout);
  caml_acquire_runtime_system();
  if (n == -1) {
    int saved = errno;
    free(pfds);
    if (saved == EINTR) return Val_int(0);
    errno = saved;
    caml_uerror("poll", Nothing);
  }
  k = 0;
  for (i = 0; i < nfds && k < out_max; i++) {
    int bits = 0;
    if (pfds[i].revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL))
      bits |= DIALED_EV_READ;
    if (pfds[i].revents & (POLLOUT | POLLERR | POLLHUP)) bits |= DIALED_EV_WRITE;
    if (bits) {
      Store_field(out, 2 * k, Val_int(pfds[i].fd));
      Store_field(out, 2 * k + 1, Val_int(bits));
      k++;
    }
  }
  free(pfds);
  return Val_int(k);
}
