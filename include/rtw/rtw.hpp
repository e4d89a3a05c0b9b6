#pragma once
/// \file rtw.hpp
/// Umbrella header for the rt-omega foundation layers: core (timed words,
/// acceptors, languages -- Definitions 3.2-3.5), sim (the discrete-event
/// kernel and its infrastructure), engine (the unified acceptor executor),
/// obs (tracing + metrics), cer (timed-pattern queries compiled to
/// online acceptors) and svc (the sharded streaming acceptance
/// service).  One include for applications that want the paper's machine
/// model without spelling out the layer diagram:
///
///   #include "rtw/rtw.hpp"         // link: rtw (interface target)
///
/// Application layers (automata, deadline, dataacc, rtdb, adhoc, par) stay
/// opt-in: they are domain instantiations, not part of the foundation, and
/// pulling e.g. the rtdb query algebra into every TU would tax compile
/// times for nothing.

// core: the paper's vocabulary.
#include "rtw/core/acceptor.hpp"
#include "rtw/core/concat.hpp"
#include "rtw/core/error.hpp"
#include "rtw/core/language.hpp"
#include "rtw/core/online.hpp"
#include "rtw/core/serialize.hpp"
#include "rtw/core/symbol.hpp"
#include "rtw/core/tape.hpp"
#include "rtw/core/timed_word.hpp"

// sim: the kernel underneath every run.
#include "rtw/sim/event_queue.hpp"
#include "rtw/sim/fault.hpp"
#include "rtw/sim/histogram.hpp"
#include "rtw/sim/jsonl.hpp"
#include "rtw/sim/rng.hpp"
#include "rtw/sim/stats.hpp"
#include "rtw/sim/thread_pool.hpp"

// engine: the unified executor and its run traces.
#include "rtw/engine/batch.hpp"
#include "rtw/engine/engine.hpp"
#include "rtw/engine/trace.hpp"

// obs: spans, metrics, exporters.
#include "rtw/obs/export.hpp"
#include "rtw/obs/metrics.hpp"
#include "rtw/obs/sink.hpp"
#include "rtw/obs/tracer.hpp"

// cer: timed-pattern queries -> clocked position automata -> acceptors.
#include "rtw/cer/acceptor.hpp"
#include "rtw/cer/cache.hpp"
#include "rtw/cer/compile.hpp"
#include "rtw/cer/parser.hpp"
#include "rtw/cer/query.hpp"
#include "rtw/cer/reference.hpp"

// svc: the serving layer (online sessions over shard workers).
#include "rtw/svc/service.hpp"
#include "rtw/svc/session.hpp"
#include "rtw/svc/wire.hpp"
