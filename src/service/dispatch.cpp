#include "service/dispatch.hpp"

#include <utility>

namespace stsense::service {

void CommandProcessor::register_method(const std::string& name,
                                       WeightClass weight, Handler handler) {
    commands_[name] = CommandSpec{weight, std::move(handler)};
}

const CommandProcessor::CommandSpec*
CommandProcessor::find(const std::string& name) const {
    const auto it = commands_.find(name);
    return it == commands_.end() ? nullptr : &it->second;
}

std::vector<std::string> CommandProcessor::methods() const {
    std::vector<std::string> out;
    out.reserve(commands_.size());
    for (const auto& [name, spec] : commands_) out.push_back(name);
    return out;
}

} // namespace stsense::service
