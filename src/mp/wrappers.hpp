#pragma once

/// The paper's message-passing wrapper API (Appendix A), verbatim:
///
///   initpass     - initialize message passing
///   endpass      - exit from message passing
///   mybcastreal  - send a message to all other processes
///   mysendreal   - send a message to a given process
///   mycheckany   - check for message of any type from any process
///   mycheckone   - check for message of a given type from a given process
///   mychecktid   - check for message of any type from a given process
///   myrecvreal   - receive a message
///
/// "In the parallel code, calls to wrapper routines are made; these
/// routines in turn invoke the actual message passing libraries" — here
/// the library is the in-process world, selected by its personality
/// (mpisim, which also stands for PVM's tag-selective receives, or
/// mplsim).  PLINGER's master and workers are written exclusively
/// against this API, exactly as in the paper.

#include <span>

#include "mp/inproc.hpp"

namespace plinger::mp {

/// The handle initpass returns: process id, master id, and the world.
/// (The paper's Fortran returns mytid/mastid through arguments; we bundle
/// them with the transport so the wrappers are free functions over it.)
struct PassContext {
  InProcWorld* world = nullptr;
  int mytid = 0;
  int mastid = 0;

  bool is_master() const { return mytid == mastid; }
};

/// initpass: bind rank `mytid` of the world; the master is rank 0.
PassContext initpass(InProcWorld& world, int mytid);

/// endpass: exit from message passing (releases nothing in-process; kept
/// for API fidelity and as the place where a real backend would finalize).
void endpass(PassContext& ctx);

/// mybcastreal: the master sends buffer to all other processes with
/// tag msgtype (the paper implements this as a send loop over ranks;
/// so do we).
void mybcastreal(PassContext& ctx, std::span<const double> buffer,
                 int msgtype);

/// mysendreal: send buffer with tag msgtype to process target.
void mysendreal(PassContext& ctx, std::span<const double> buffer,
                int msgtype, int target);

/// mycheckany: wait for a message of any type from any process; returns
/// its tag in msgtype and its sender in target.
void mycheckany(PassContext& ctx, int& msgtype, int& target);

/// mycheckone: wait for a message of type msgtype from process target.
void mycheckone(PassContext& ctx, int msgtype, int target);

/// mychecktid: wait for a message of any type from process target;
/// returns the message tag in msgtype.
void mychecktid(PassContext& ctx, int& msgtype, int target);

/// myrecvreal: receive a message of type msgtype from process target into
/// buffer; returns the payload length in doubles.
std::size_t myrecvreal(PassContext& ctx, std::span<double> buffer,
                       int msgtype, int target);

}  // namespace plinger::mp
