#include "core/error.hpp"

#include <sstream>

namespace hmm::detail {

void throw_precondition(const std::string& msg) {
  throw PreconditionError(msg);
}

void throw_internal(const char* expr, const std::string& msg,
                    std::source_location loc) {
  std::ostringstream os;
  os << "invariant failed: (" << expr << ") — " << msg << " ["
     << loc.file_name() << ":" << loc.line() << " in " << loc.function_name()
     << "]";
  throw InternalError(os.str());
}

}  // namespace hmm::detail
