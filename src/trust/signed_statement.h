#ifndef PISREP_TRUST_SIGNED_STATEMENT_H_
#define PISREP_TRUST_SIGNED_STATEMENT_H_

#include <string>
#include <string_view>

#include "core/behavior.h"
#include "core/types.h"
#include "crypto/signing.h"
#include "crypto/trust_store.h"
#include "util/clock.h"
#include "util/status.h"
#include "xml/xml_node.h"

namespace pisrep::trust {

/// A vendor's signed claim that a binary is theirs (§4.2: white-list
/// software "digitally signed by a trusted vendor"). The vendor signs the
/// tuple (name, file name, version, sha1) with its pinned key; the server
/// verifies against its TrustStore before the claim may influence any
/// client decision.
struct SoftwareManifest {
  std::string vendor;       ///< pinned-certificate name (kVendor role)
  std::string file_name;
  std::string version;
  core::SoftwareId software;  ///< SHA-1 of the binary the claim covers
  crypto::Signature signature = 0;
};

/// Canonical byte string the manifest signature covers.
std::string ManifestMessage(const SoftwareManifest& manifest);

/// Signs `manifest` in place with the vendor's private key.
void SignManifest(const crypto::PrivateKey& key, SoftwareManifest* manifest);

/// True when the signature verifies under the *vendor-role* certificate
/// pinned for `manifest.vendor` (revoked or expert-role keys never pass).
bool VerifyManifest(const crypto::TrustStore& store,
                    const SoftwareManifest& manifest);

/// Wire form: `<manifest vendor=.. file_name=.. version=.. software=..
/// sig=../>` — carried identically by the XML and binary codecs.
xml::XmlNode ManifestToXml(const SoftwareManifest& manifest);
util::Result<SoftwareManifest> ManifestFromXml(const xml::XmlNode& node);

/// An expert's signed advisory about a binary: a flag, a score, and the
/// behaviors observed. Accepted advisories are republished through the
/// ordinary feed plumbing (feed name == expert name) so clients pick them
/// up over the existing QueryFeed path.
struct ExpertAdvisory {
  std::string expert;       ///< pinned-certificate name (kExpert role)
  core::SoftwareId software;
  bool flagged = false;     ///< true: expert marks the binary as PIS
  double score = 0.0;       ///< expert's rating in [1, 10]
  core::BehaviorSet behaviors = core::kNoBehaviors;
  std::string note;
  util::TimePoint issued_at = 0;
  crypto::Signature signature = 0;
};

/// Canonical byte string the advisory signature covers. Built from the
/// same renderings the XML form carries, so a re-serialised advisory
/// verifies bit-identically on the server.
std::string AdvisoryMessage(const ExpertAdvisory& advisory);

void SignAdvisory(const crypto::PrivateKey& key, ExpertAdvisory* advisory);

/// True when the signature verifies under the *expert-role* certificate
/// pinned for `advisory.expert`.
bool VerifyAdvisory(const crypto::TrustStore& store,
                    const ExpertAdvisory& advisory);

xml::XmlNode AdvisoryToXml(const ExpertAdvisory& advisory);
util::Result<ExpertAdvisory> AdvisoryFromXml(const xml::XmlNode& node);

/// Canonical rendering of an advisory score (shared by message and XML so
/// float formatting can never make a signature fail to round-trip).
std::string RenderScore(double score);

}  // namespace pisrep::trust

#endif  // PISREP_TRUST_SIGNED_STATEMENT_H_
