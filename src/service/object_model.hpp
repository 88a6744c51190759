// service::ObjectModel — a hierarchical, lazily-evaluated view of live
// runtime state.
//
// Modeled on RepRapFirmware's ObjectModel report/query machinery: the
// server does not snapshot its world into one giant document per query.
// Instead it exposes a virtual tree whose nodes are *recipes* — a leaf
// holds a closure that reads the live value when (and only when) the
// query renders it, and a container holds factories that materialize a
// child only when the query path or the report descends into it. A query
// for `state.sessions[3].sites[12].health` therefore touches exactly one
// session and one site; the other N-1 sessions are never evaluated.
//
// Report shaping follows the same firmware idiom:
//   * a *depth* limit stops the rendering: containers below the limit
//     render as the truncation marker "..." (so a shallow query over a
//     huge tree stays cheap and bounded);
//   * a *filter* wildcard ("hit*", "*_c") prunes object keys at every
//     rendered level — clients fetch the fields they care about, not the
//     whole record.
//
// Thread-safety is the provider's problem by design: closures read
// atomics or take the owning component's state lock. The tree structure
// itself is immutable once built.
#pragma once

#include "service/json.hpp"

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace stsense::service {

class ModelNode;
using ModelPtr = std::shared_ptr<const ModelNode>;

/// One node of the virtual tree. Exactly one of the three shapes:
/// a leaf (value()), an object (keys()/child(key)), or an array
/// (length()/element(i)).
class ModelNode {
public:
    virtual ~ModelNode() = default;

    virtual bool is_leaf() const { return false; }
    virtual bool is_array() const { return false; }

    /// Leaf evaluation — reads the live value. Leaf nodes only.
    virtual Json value() const { return Json(nullptr); }

    /// Object child names, in render order. Object nodes only.
    virtual std::vector<std::string> keys() const { return {}; }
    /// Materializes one object child; nullptr when the key is unknown.
    virtual ModelPtr child(const std::string& /*key*/) const { return nullptr; }

    /// Array length / element. Array nodes only.
    virtual std::size_t length() const { return 0; }
    virtual ModelPtr element(std::size_t /*index*/) const { return nullptr; }
};

/// Leaf from a value-reading closure.
ModelPtr leaf(std::function<Json()> read);
/// Leaf holding a constant.
ModelPtr fixed_leaf(Json value);

/// Node over a Json document, taken whole when the node is built:
/// objects become object nodes, arrays array nodes, anything else a
/// leaf. A provider that publishes its state as one Json value reads
/// it once per query this way, so every field a query renders comes
/// from the same snapshot.
ModelPtr json_node(Json value);

/// Object node from (name, child-factory) pairs; factories run lazily,
/// once per query that descends into the child.
using ChildFactory = std::function<ModelPtr()>;
ModelPtr object(std::vector<std::pair<std::string, ChildFactory>> children);

/// Array node: `count` is re-read per query, `at` materializes one
/// element on demand.
ModelPtr array(std::function<std::size_t()> count,
               std::function<ModelPtr(std::size_t)> at);

/// How a query renders the selected subtree.
struct QueryOptions {
    /// Containers more than `depth` levels below the selected node
    /// render as the truncation marker. depth 0 renders the node itself
    /// as a marker unless it is a leaf.
    int depth = 4;
    /// Wildcard ('*' matches any run) applied to object keys at every
    /// rendered level; empty matches everything. Keys that fail the
    /// filter are omitted (but the path segments already named in the
    /// query are exempt — you can always address a node explicitly).
    std::string filter;
    static constexpr const char* kTruncated = "...";
};

/// Outcome of resolving a path against the tree.
struct QueryResult {
    bool ok = false;
    Json value;        ///< Rendered subtree when ok.
    std::string error; ///< Which segment failed otherwise.
};

/// Simple '*' wildcard match (exposed for tests).
bool wildcard_match(const std::string& pattern, const std::string& text);

/// Splits an object-model path into segments. Grammar:
///   path  := [ "state" ] ( "." ident | "[" digits "]" )*
/// i.e. "state.sessions[3].sites[12].health", "pool.queue_depth",
/// "sessions[0]". An empty path (or bare "state") selects the root.
/// Returns false on syntax errors ("sessions[", "a..b", "x[y]").
bool parse_model_path(const std::string& path, std::vector<std::string>& out,
                      std::string& error);

/// Resolves `path` from `root` and renders the selected subtree under
/// `opt`. Unknown keys / out-of-range indices fail with the offending
/// segment named; rendering never throws.
QueryResult query_model(const ModelPtr& root, const std::string& path,
                        const QueryOptions& opt = {});

} // namespace stsense::service
