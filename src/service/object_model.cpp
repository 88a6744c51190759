#include "service/object_model.hpp"

#include <cctype>
#include <charconv>
#include <limits>

namespace stsense::service {

namespace {

class LeafNode final : public ModelNode {
public:
    explicit LeafNode(std::function<Json()> read) : read_(std::move(read)) {}
    bool is_leaf() const override { return true; }
    Json value() const override { return read_(); }

private:
    std::function<Json()> read_;
};

class ObjectNode final : public ModelNode {
public:
    explicit ObjectNode(std::vector<std::pair<std::string, ChildFactory>> children)
        : children_(std::move(children)) {}

    std::vector<std::string> keys() const override {
        std::vector<std::string> out;
        out.reserve(children_.size());
        for (const auto& [name, factory] : children_) out.push_back(name);
        return out;
    }

    ModelPtr child(const std::string& key) const override {
        for (const auto& [name, factory] : children_) {
            if (name == key) return factory();
        }
        return nullptr;
    }

private:
    std::vector<std::pair<std::string, ChildFactory>> children_;
};

class ArrayNode final : public ModelNode {
public:
    ArrayNode(std::function<std::size_t()> count,
              std::function<ModelPtr(std::size_t)> at)
        : count_(std::move(count)), at_(std::move(at)) {}

    bool is_array() const override { return true; }
    std::size_t length() const override { return count_(); }
    ModelPtr element(std::size_t index) const override {
        return index < count_() ? at_(index) : nullptr;
    }

private:
    std::function<std::size_t()> count_;
    std::function<ModelPtr(std::size_t)> at_;
};

/// A view into a Json document shared by every node cut from it:
/// objects are objects, arrays are arrays, anything else is a leaf.
class JsonNode final : public ModelNode {
public:
    JsonNode(std::shared_ptr<const Json> doc, const Json* value)
        : doc_(std::move(doc)), value_(value) {}

    bool is_leaf() const override {
        return !value_->is_object() && !value_->is_array();
    }
    bool is_array() const override { return value_->is_array(); }
    Json value() const override { return *value_; }

    std::vector<std::string> keys() const override {
        std::vector<std::string> out;
        out.reserve(value_->members().size());
        for (const auto& [key, v] : value_->members()) out.push_back(key);
        return out;
    }
    ModelPtr child(const std::string& key) const override {
        if (!value_->contains(key)) return nullptr;
        return std::make_shared<JsonNode>(doc_, &value_->at(key));
    }

    std::size_t length() const override { return value_->items().size(); }
    ModelPtr element(std::size_t index) const override {
        if (index >= length()) return nullptr;
        return std::make_shared<JsonNode>(doc_, &value_->at(index));
    }

private:
    std::shared_ptr<const Json> doc_;
    const Json* value_;
};

/// Renders `node` to Json, honoring the depth budget and key filter.
/// `depth_left` counts container levels still allowed to open.
Json render(const ModelNode& node, int depth_left, const std::string& filter) {
    if (node.is_leaf()) return node.value();
    if (depth_left <= 0) return Json(QueryOptions::kTruncated);
    if (node.is_array()) {
        Json out = Json::array();
        const std::size_t n = node.length();
        for (std::size_t i = 0; i < n; ++i) {
            const ModelPtr el = node.element(i);
            out.push_back(el ? render(*el, depth_left - 1, filter)
                             : Json(nullptr));
        }
        return out;
    }
    Json out = Json::object();
    for (const auto& key : node.keys()) {
        if (!filter.empty() && !wildcard_match(filter, key)) continue;
        const ModelPtr ch = node.child(key);
        if (!ch) continue;
        out.set(key, render(*ch, depth_left - 1, filter));
    }
    return out;
}

} // namespace

ModelPtr leaf(std::function<Json()> read) {
    return std::make_shared<LeafNode>(std::move(read));
}

ModelPtr fixed_leaf(Json value) {
    return std::make_shared<LeafNode>(
        [v = std::move(value)] { return v; });
}

ModelPtr json_node(Json value) {
    auto doc = std::make_shared<const Json>(std::move(value));
    const Json* root = doc.get();
    return std::make_shared<JsonNode>(std::move(doc), root);
}

ModelPtr object(std::vector<std::pair<std::string, ChildFactory>> children) {
    return std::make_shared<ObjectNode>(std::move(children));
}

ModelPtr array(std::function<std::size_t()> count,
               std::function<ModelPtr(std::size_t)> at) {
    return std::make_shared<ArrayNode>(std::move(count), std::move(at));
}

bool wildcard_match(const std::string& pattern, const std::string& text) {
    // Iterative '*' matcher with backtracking to the last star.
    std::size_t p = 0;
    std::size_t t = 0;
    std::size_t star = std::string::npos;
    std::size_t mark = 0;
    while (t < text.size()) {
        if (p < pattern.size() && (pattern[p] == text[t])) {
            ++p;
            ++t;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            mark = t;
        } else if (star != std::string::npos) {
            p = star + 1;
            t = ++mark;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*') ++p;
    return p == pattern.size();
}

bool parse_model_path(const std::string& path, std::vector<std::string>& out,
                      std::string& error) {
    out.clear();
    std::size_t i = 0;
    const std::size_t n = path.size();
    auto ident = [&]() -> bool {
        const std::size_t start = i;
        while (i < n && (std::isalnum(static_cast<unsigned char>(path[i])) ||
                         path[i] == '_')) {
            ++i;
        }
        if (i == start) {
            error = "expected a name at offset " + std::to_string(start);
            return false;
        }
        out.push_back(path.substr(start, i - start));
        return true;
    };
    // Leading identifier (optional "state" root alias, dropped below).
    if (n == 0) return true;
    if (!ident()) return false;
    if (out.back() == "state") out.pop_back();
    while (i < n) {
        if (path[i] == '.') {
            ++i;
            if (!ident()) return false;
        } else if (path[i] == '[') {
            ++i;
            const std::size_t start = i;
            while (i < n && std::isdigit(static_cast<unsigned char>(path[i]))) ++i;
            if (i == start || i >= n || path[i] != ']') {
                error = "expected [index] at offset " + std::to_string(start);
                return false;
            }
            out.push_back("[" + path.substr(start, i - start) + "]");
            ++i;
        } else {
            error = std::string("unexpected '") + path[i] + "' at offset " +
                    std::to_string(i);
            return false;
        }
    }
    return true;
}

QueryResult query_model(const ModelPtr& root, const std::string& path,
                        const QueryOptions& opt) {
    QueryResult result;
    if (!root) {
        result.error = "no object model";
        return result;
    }
    std::vector<std::string> segments;
    std::string parse_error;
    if (!parse_model_path(path, segments, parse_error)) {
        result.error = "bad path '" + path + "': " + parse_error;
        return result;
    }
    ModelPtr node = root;
    std::string where = "state";
    for (const auto& seg : segments) {
        ModelPtr next;
        if (seg.size() >= 2 && seg.front() == '[') {
            // An index too large for size_t is past the end of any array.
            std::size_t index = 0;
            if (std::from_chars(seg.data() + 1, seg.data() + seg.size() - 1,
                                index)
                    .ec != std::errc()) {
                index = std::numeric_limits<std::size_t>::max();
            }
            if (!node->is_array()) {
                result.error = where + " is not an array";
                return result;
            }
            next = node->element(index);
            if (!next) {
                result.error = where + seg + " is out of range (length " +
                               std::to_string(node->length()) + ")";
                return result;
            }
            where += seg;
        } else {
            next = node->child(seg);
            if (!next) {
                result.error = "no key '" + seg + "' under " + where;
                return result;
            }
            where += "." + seg;
        }
        node = std::move(next);
    }
    result.ok = true;
    result.value = render(*node, opt.depth < 0 ? 0 : opt.depth, opt.filter);
    return result;
}

} // namespace stsense::service
