// service::Json — the one JSON value type of the telemetry service.
//
// The wire protocol (protocol.hpp) is newline-delimited JSON, and the
// object model (object_model.hpp) renders live runtime state as JSON, so
// the service layer needs both directions: a writer whose doubles
// round-trip bitwise (util::format_double, the same shortest-round-trip
// formatting the checkpoint layer relies on) and a parser that treats
// arbitrary client bytes as hostile input — malformed text, truncated
// lines, and nesting bombs must come back as a parse error, never as a
// crash or unbounded recursion.
//
// Objects keep their key/value pairs sorted, so dump() output is
// deterministic: equal values serialize to equal bytes, which is what
// the drain/resume parity tests and the response-schema checker assert
// against. (The storage is a sorted vector rather than std::map: Json
// is incomplete inside its own definition, and standard containers
// other than vector don't guarantee incomplete-type support.)
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace stsense::service {

struct JsonParseResult;

class Json {
public:
    using Array = std::vector<Json>;
    /// Sorted by key; set() keeps the invariant (last write wins).
    using Object = std::vector<std::pair<std::string, Json>>;

    Json() = default;
    Json(std::nullptr_t) {}                                    // NOLINT(google-explicit-constructor)
    Json(bool b) : kind_(Kind::Bool), bool_(b) {}              // NOLINT
    Json(double d) : kind_(Kind::Number), num_(d) {}           // NOLINT
    Json(int i) : kind_(Kind::Number), num_(i) {}              // NOLINT
    Json(std::int64_t i)                                       // NOLINT
        : kind_(Kind::Number), num_(static_cast<double>(i)) {}
    Json(std::uint64_t u)                                      // NOLINT
        : kind_(Kind::Number), num_(static_cast<double>(u)) {}
    Json(const char* s) : kind_(Kind::String), str_(s) {}      // NOLINT
    Json(std::string s) : kind_(Kind::String), str_(std::move(s)) {} // NOLINT
    Json(Array a) : kind_(Kind::Array), arr_(std::move(a)) {}  // NOLINT

    static Json array() { return Json(Array{}); }
    static Json object() {
        Json j;
        j.kind_ = Kind::Object;
        return j;
    }

    bool is_null() const { return kind_ == Kind::Null; }
    bool is_bool() const { return kind_ == Kind::Bool; }
    bool is_number() const { return kind_ == Kind::Number; }
    bool is_string() const { return kind_ == Kind::String; }
    bool is_array() const { return kind_ == Kind::Array; }
    bool is_object() const { return kind_ == Kind::Object; }

    bool as_bool(bool fallback = false) const {
        return is_bool() ? bool_ : fallback;
    }
    double as_double(double fallback = 0.0) const {
        return is_number() ? num_ : fallback;
    }
    /// Integer accessors truncate toward zero and saturate at the
    /// target type's range (±inf included), so a caller's own range
    /// check or clamp sees 1e300 as "too large". NaN gives `fallback`.
    int as_int(int fallback = 0) const { return saturate<int>(fallback); }
    std::int64_t as_int64(std::int64_t fallback = 0) const {
        return saturate<std::int64_t>(fallback);
    }
    const std::string& as_string(const std::string& fallback = empty_string()) const {
        return is_string() ? str_ : fallback;
    }

    /// Array/object access. Non-container values behave as empty.
    std::size_t size() const;
    const Json& at(std::size_t index) const;       ///< Null when out of range.
    const Json& at(const std::string& key) const;  ///< Null when absent.
    bool contains(const std::string& key) const;

    /// Mutating helpers (coerce this value into the container kind).
    void push_back(Json v);
    Json& set(const std::string& key, Json v);

    const Array& items() const;    ///< Empty for non-arrays.
    const Object& members() const; ///< Empty for non-objects (sorted).

    /// Compact serialization (no whitespace). Doubles use
    /// util::format_double: shortest text that round-trips bitwise.
    std::string dump() const;

    /// Structural equality (objects compare as sorted sequences).
    friend bool operator==(const Json& a, const Json& b);

    /// Parses one JSON document; trailing non-whitespace is an error.
    /// Nesting deeper than `max_depth` is rejected (a hostile client
    /// must not be able to recurse the parser off the stack).
    static JsonParseResult parse(const std::string& text,
                                 std::size_t max_depth = 64);

private:
    enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };

    static const std::string& empty_string();

    template <class Int>
    Int saturate(Int fallback) const {
        if (!is_number() || std::isnan(num_)) return fallback;
        // min is -2^k exactly; max is 2^k - 1 exactly (int) or rounds
        // up to 2^k (int64). Every value strictly between truncates
        // into range.
        constexpr double lo = static_cast<double>(std::numeric_limits<Int>::min());
        constexpr double hi = static_cast<double>(std::numeric_limits<Int>::max());
        if (num_ <= lo) return std::numeric_limits<Int>::min();
        if (num_ >= hi) return std::numeric_limits<Int>::max();
        return static_cast<Int>(num_);
    }

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    Array arr_;
    Object obj_;
};

/// A parsed document or the reason it was rejected.
struct JsonParseResult {
    std::optional<Json> value; ///< Engaged iff the input parsed.
    std::string error;         ///< Diagnostic with byte offset otherwise.
};

/// JSON string escaping (quotes included), shared with the exporters.
std::string json_quote(const std::string& s);

} // namespace stsense::service
