// service wire protocol — newline-delimited JSON requests/responses.
//
// One request per line, one response line per request (plus unsolicited
// event lines for subscriptions):
//
//   -> {"id":7,"method":"sweep","params":{"session":1,"points":17}}
//   <- {"id":7,"ok":true,"result":{...}}
//   <- {"id":8,"ok":false,"error":{"code":"overloaded","message":"..."}}
//   <- {"event":"update","seq":3,"path":"pool.queue_depth","value":2}
//
// Responses may arrive out of request order (heavy jobs overtake each
// other on the pool); the id is the correlation key. Every failure is a
// *typed* error response — malformed bytes, unknown methods, bad
// params, admission rejections, and handler faults all map onto
// ErrorCode values, never onto a dropped connection or a crash.
#pragma once

#include "service/json.hpp"

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace stsense::service {

/// Why a request failed. The enum string (to_string) is the wire form.
enum class ErrorCode {
    MalformedRequest, ///< Line was not a JSON object with id/method.
    UnknownMethod,    ///< Method name not in the command registry.
    BadParams,        ///< Params missing/mistyped for the method.
    UnknownSession,   ///< "session" does not name a live session.
    UnknownPath,      ///< Object-model path did not resolve.
    Overloaded,       ///< Admission control rejected the request.
    ShuttingDown,     ///< Server is draining; no new work admitted.
    Internal,         ///< Handler failed (solver fault, injected kill...).
    Cancelled,        ///< Request cancelled (cancel method, disconnect).
    DeadlineUnmet,    ///< deadline_ms expired (shed or mid-computation).
};

const char* to_string(ErrorCode code);

/// Typed failure a command handler raises; the dispatcher converts it
/// into the matching error response.
class ServiceError : public std::runtime_error {
public:
    ServiceError(ErrorCode code, const std::string& message)
        : std::runtime_error(message), code_(code) {}
    ErrorCode code() const { return code_; }

private:
    ErrorCode code_;
};

/// Typed reads of one request param. An absent or null param gives
/// `fallback`; a present one of another JSON type throws
/// ServiceError(BadParams) naming the param, so a mistyped value is
/// never read as the default.
double require_finite(const Json& params, const char* key, double fallback);
/// Truncated and saturated as Json::as_int, then checked against [lo, hi].
int require_int(const Json& params, const char* key, int fallback,
                int lo = std::numeric_limits<int>::min(),
                int hi = std::numeric_limits<int>::max());
bool require_bool(const Json& params, const char* key, bool fallback);
std::string require_string(const Json& params, const char* key,
                           const std::string& fallback = {});

/// One parsed request.
struct Request {
    std::int64_t id = 0;
    std::string method;
    Json params; ///< Object; empty object when the client sent none.
    /// Optional end-to-end deadline, wall milliseconds from receipt.
    /// 0 = none. The server arms a cancel-token deadline from it:
    /// expiry before dispatch sheds the request (`deadline-unmet`),
    /// expiry mid-computation unwinds it at the next poll point.
    double deadline_ms = 0.0;
};

/// Parses one wire line into a Request. Throws ServiceError
/// (MalformedRequest) naming what is wrong; never crashes on hostile
/// bytes (the JSON parser is depth- and format-checked).
Request parse_request(const std::string& line);

/// Best-effort id of a line parse_request rejected, so even a
/// malformed-request error correlates when it can: the "id" when it is
/// an integer parse_request would accept, else 0.
std::int64_t salvage_id(const std::string& line);

/// Response/event constructors (already-serialized lines).
std::string make_ok_response(std::int64_t id, Json result);
std::string make_error_response(std::int64_t id, ErrorCode code,
                                const std::string& message);
std::string make_event(std::uint64_t seq, const std::string& path, Json value);

} // namespace stsense::service
