#include "service/protocol.hpp"

#include <cmath>

namespace stsense::service {

const char* to_string(ErrorCode code) {
    switch (code) {
        case ErrorCode::MalformedRequest: return "malformed-request";
        case ErrorCode::UnknownMethod: return "unknown-method";
        case ErrorCode::BadParams: return "bad-params";
        case ErrorCode::UnknownSession: return "unknown-session";
        case ErrorCode::UnknownPath: return "unknown-path";
        case ErrorCode::Overloaded: return "overloaded";
        case ErrorCode::ShuttingDown: return "shutting-down";
        case ErrorCode::Internal: return "internal";
        case ErrorCode::Cancelled: return "cancelled";
        case ErrorCode::DeadlineUnmet: return "deadline-unmet";
    }
    return "unknown";
}

namespace {

/// An integral id inside the int64 range. 2^63 is the first double
/// above it (the literal below is exactly 2^63).
bool valid_id(const Json& id) {
    if (!id.is_number()) return false;
    const double v = id.as_double();
    return std::floor(v) == v && v >= -9.2233720368547758e18 &&
           v < 9.2233720368547758e18;
}

} // namespace

Request parse_request(const std::string& line) {
    JsonParseResult parsed = Json::parse(line);
    if (!parsed.value) {
        throw ServiceError(ErrorCode::MalformedRequest, parsed.error);
    }
    const Json& doc = *parsed.value;
    if (!doc.is_object()) {
        throw ServiceError(ErrorCode::MalformedRequest,
                           "request must be a JSON object");
    }
    if (!doc.at("id").is_number()) {
        throw ServiceError(ErrorCode::MalformedRequest,
                           "request needs a numeric \"id\"");
    }
    if (!valid_id(doc.at("id"))) {
        throw ServiceError(ErrorCode::MalformedRequest,
                           "\"id\" must be an integer");
    }
    if (!doc.at("method").is_string() ||
        doc.at("method").as_string().empty()) {
        throw ServiceError(ErrorCode::MalformedRequest,
                           "request needs a non-empty string \"method\"");
    }
    Request req;
    req.id = doc.at("id").as_int64();
    req.method = doc.at("method").as_string();
    const Json& params = doc.at("params");
    if (params.is_object()) {
        req.params = params;
    } else if (params.is_null()) {
        req.params = Json::object();
    } else {
        throw ServiceError(ErrorCode::MalformedRequest,
                           "\"params\" must be an object when present");
    }
    const Json& deadline = doc.at("deadline_ms");
    if (!deadline.is_null()) {
        if (!deadline.is_number()) {
            throw ServiceError(ErrorCode::MalformedRequest,
                               "\"deadline_ms\" must be a number");
        }
        const double ms = deadline.as_double();
        if (!std::isfinite(ms) || ms < 0.0) {
            throw ServiceError(ErrorCode::MalformedRequest,
                               "\"deadline_ms\" must be finite and >= 0");
        }
        req.deadline_ms = ms;
    }
    return req;
}

std::int64_t salvage_id(const std::string& line) {
    const auto parsed = Json::parse(line);
    if (parsed.value && valid_id(parsed.value->at("id"))) {
        return parsed.value->at("id").as_int64();
    }
    return 0;
}

namespace {

[[noreturn]] void bad_type(const char* key, const char* type) {
    throw ServiceError(ErrorCode::BadParams,
                       std::string("param '") + key + "' must be " + type);
}

} // namespace

double require_finite(const Json& params, const char* key, double fallback) {
    const Json& v = params.at(key);
    const double d = v.is_null() ? fallback : v.as_double(std::nan(""));
    if (!std::isfinite(d)) bad_type(key, "a finite number");
    return d;
}

int require_int(const Json& params, const char* key, int fallback, int lo,
                int hi) {
    const Json& v = params.at(key);
    if (v.is_null()) return fallback;
    if (!v.is_number()) bad_type(key, "a number");
    const int n = v.as_int();
    if (n < lo || n > hi) {
        throw ServiceError(ErrorCode::BadParams,
                           std::string("param '") + key + "' out of range [" +
                               std::to_string(lo) + ", " + std::to_string(hi) +
                               "]");
    }
    return n;
}

bool require_bool(const Json& params, const char* key, bool fallback) {
    const Json& v = params.at(key);
    if (v.is_null()) return fallback;
    if (!v.is_bool()) bad_type(key, "a boolean");
    return v.as_bool();
}

std::string require_string(const Json& params, const char* key,
                           const std::string& fallback) {
    const Json& v = params.at(key);
    if (v.is_null()) return fallback;
    if (!v.is_string()) bad_type(key, "a string");
    return v.as_string();
}

std::string make_ok_response(std::int64_t id, Json result) {
    Json doc = Json::object();
    doc.set("id", id);
    doc.set("ok", true);
    doc.set("result", std::move(result));
    return doc.dump();
}

std::string make_error_response(std::int64_t id, ErrorCode code,
                                const std::string& message) {
    Json err = Json::object();
    err.set("code", to_string(code));
    err.set("message", message);
    Json doc = Json::object();
    doc.set("id", id);
    doc.set("ok", false);
    doc.set("error", std::move(err));
    return doc.dump();
}

std::string make_event(std::uint64_t seq, const std::string& path, Json value) {
    Json doc = Json::object();
    doc.set("event", "update");
    doc.set("seq", seq);
    doc.set("path", path);
    doc.set("value", std::move(value));
    return doc.dump();
}

} // namespace stsense::service
