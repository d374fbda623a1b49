/// \file
/// The model registry: one place that resolves `--model <name|path>` for
/// every tool and test.
///
/// Two tiers, searched in order:
///  1. the embedded `.mtm` zoo (the same sources checked in under
///     examples/models/; a golden test keeps file and embedding identical),
///     addressable with or without the `.mtm` suffix — e.g. `sc` or
///     `sc.mtm`. The predefined models are entries here: `x86t_elt` (the
///     default), `x86tso` and `sc_t_elt`, which mtm::x86t_elt() and its
///     siblings resolve;
///  2. the filesystem: anything else is read as a path to a `.mtm` file.
///
/// Parse failures come back as positioned diagnostics
/// (`origin:line:col: error: ...`), which the tools print to stderr before
/// exiting 2 — the tool_args.h strictness convention.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "mtm/model.h"

namespace transform::spec {

/// One embedded zoo model: its registry name (the `.mtm` filename), the
/// full source text, and a one-line summary for --list-models.
struct RegistryEntry {
    const char* name;     ///< e.g. "x86t_elt.mtm"
    const char* summary;
    const char* source;
};

/// Every embedded `.mtm` source, in listing order.
const std::vector<RegistryEntry>& registry_entries();

/// A resolved model plus where it came from.
struct ResolvedModel {
    mtm::Model model;
    std::string origin;  ///< "registry:<name>" or the path
};

/// Resolves \p name_or_path through the two tiers. On failure returns
/// nullopt and sets \p error to a printable message (positioned for parse
/// errors, "unknown model" + the available names otherwise).
std::optional<ResolvedModel> resolve_model(const std::string& name_or_path,
                                           std::string* error);

/// Human-readable listing of every resolvable name (for --list-models).
std::string list_models_text();

}  // namespace transform::spec
