#ifndef PISREP_CLIENT_PROMPT_RENDER_H_
#define PISREP_CLIENT_PROMPT_RENDER_H_

#include <string>

#include "client/client_app.h"

namespace pisrep::client {

/// Renders the §3.1 execution-pause dialog: everything the proof-of-concept
/// GUI shows the user before they decide — file identity, the community
/// score, vendor reputation, reported behaviours, run statistics, signature
/// status, recent comments — plus a one-line advisory summary.
///
/// The renderer is pure: PromptInfo in, text out. Example binaries print
/// it; a real GUI would lay the same fields out graphically.
class PromptRenderer {
 public:
  struct Options {
    /// Max comments included.
    std::size_t max_comments = 3;
  };

  PromptRenderer() : options_(Options{}) {}
  explicit PromptRenderer(Options options) : options_(options) {}

  /// The full multi-line dialog body.
  std::string Render(const PromptInfo& info) const;

  /// The one-line advisory ("community warns against this program", ...).
  /// This is guidance, never a verdict — the decision stays with the user
  /// (§4.1: informed decisions transfer responsibility to users).
  std::string Advisory(const PromptInfo& info) const;

  /// "[####______] 3.7/10" style rating bar.
  std::string RatingBar(double score) const;

 private:
  Options options_;
};

}  // namespace pisrep::client

#endif  // PISREP_CLIENT_PROMPT_RENDER_H_
