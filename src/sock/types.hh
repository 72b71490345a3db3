/**
 * @file
 * Transport-agnostic application-level types: per-send options, the
 * in-band message metadata words, and the message-framing structs the
 * facade's send/recv-message members exchange.
 *
 * The connection protocol under the facade (tcp/protocol.hh) takes
 * these types directly, so the wire formats are shared by every
 * transport.
 */

#ifndef IOAT_SOCK_TYPES_HH
#define IOAT_SOCK_TYPES_HH

#include <cstddef>
#include <cstdint>

#include "net/burst.hh"
#include "simcore/reqtrace.hh"

namespace ioat::sock {

/** Per-send options, honoured by every transport. */
struct SendOptions
{
    /** sendfile()-style zero-copy: skip the user→kernel copy.  The
     *  bypass transport is always zero-copy; it ignores this. */
    bool zeroCopy = false;
    /** Request context this send serves (invalid = untraced). */
    sim::TraceContext trace{};
};

/**
 * Application metadata that rides in-band with a message's first
 * segment.  Data content is virtual in this simulator (only byte
 * counts move); this is how message-structured applications attach
 * the few words of real information a request/response needs.
 */
struct MsgMeta
{
    std::uint64_t w[net::kBurstMetaWords] = {};
};

/** Outcome of a timed message exchange. */
enum class MsgStatus {
    Ok,      ///< message delivered
    Eof,     ///< peer closed in an orderly way
    Timeout, ///< deadline expired; the connection was aborted
    Aborted, ///< transport failed (retry exhaustion / local abort)
};

/** Wire size of a message header. */
inline constexpr std::size_t kMessageHeaderBytes = 64;

/** Application-level message header. */
struct Message
{
    std::uint64_t tag = 0; ///< message type, application-defined
    std::uint64_t a = 0;   ///< argument words
    std::uint64_t b = 0;
    std::uint64_t c = 0;
    std::uint64_t payloadBytes = 0; ///< payload following the header
    /** Request context the message serves; rides the header's sixth
     *  metadata word, so causality crosses the connection. */
    sim::TraceContext trace{};
};

} // namespace ioat::sock

#endif // IOAT_SOCK_TYPES_HH
