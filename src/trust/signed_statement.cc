#include "trust/signed_statement.h"

#include <utility>

#include "util/string_util.h"

namespace pisrep::trust {

namespace {

using util::Result;
using xml::XmlNode;

constexpr char kFieldSep = '\x1f';

}  // namespace

std::string RenderScore(double score) {
  return util::StrFormat("%.2f", score);
}

std::string ManifestMessage(const SoftwareManifest& manifest) {
  std::string message("pisrep-manifest");
  message += kFieldSep;
  message += manifest.vendor;
  message += kFieldSep;
  message += manifest.file_name;
  message += kFieldSep;
  message += manifest.version;
  message += kFieldSep;
  message += manifest.software.ToHex();
  return message;
}

void SignManifest(const crypto::PrivateKey& key, SoftwareManifest* manifest) {
  manifest->signature = crypto::Sign(key, ManifestMessage(*manifest));
}

bool VerifyManifest(const crypto::TrustStore& store,
                    const SoftwareManifest& manifest) {
  return store.VerifySignatureAs(crypto::KeyRole::kVendor, manifest.vendor,
                                 ManifestMessage(manifest),
                                 manifest.signature);
}

XmlNode ManifestToXml(const SoftwareManifest& manifest) {
  XmlNode node("manifest");
  node.SetAttribute("vendor", manifest.vendor);
  node.SetAttribute("file_name", manifest.file_name);
  node.SetAttribute("version", manifest.version);
  node.SetAttribute("software", manifest.software.ToHex());
  node.SetAttribute("sig", std::to_string(manifest.signature));
  return node;
}

Result<SoftwareManifest> ManifestFromXml(const XmlNode& node) {
  SoftwareManifest manifest;
  PISREP_ASSIGN_OR_RETURN(manifest.vendor, node.Attribute("vendor"));
  manifest.file_name = node.AttributeOr("file_name", "");
  manifest.version = node.AttributeOr("version", "");
  PISREP_ASSIGN_OR_RETURN(std::string hex, node.Attribute("software"));
  PISREP_ASSIGN_OR_RETURN(manifest.software, core::SoftwareIdFromHex(hex));
  PISREP_ASSIGN_OR_RETURN(std::string sig, node.Attribute("sig"));
  PISREP_ASSIGN_OR_RETURN(std::int64_t parsed, util::ParseInt64(sig));
  manifest.signature = static_cast<crypto::Signature>(parsed);
  return manifest;
}

std::string AdvisoryMessage(const ExpertAdvisory& advisory) {
  std::string message("pisrep-advisory");
  message += kFieldSep;
  message += advisory.expert;
  message += kFieldSep;
  message += advisory.software.ToHex();
  message += kFieldSep;
  message += advisory.flagged ? '1' : '0';
  message += kFieldSep;
  message += RenderScore(advisory.score);
  message += kFieldSep;
  message += core::BehaviorSetToString(advisory.behaviors);
  message += kFieldSep;
  message += std::to_string(advisory.issued_at);
  message += kFieldSep;
  message += advisory.note;
  return message;
}

void SignAdvisory(const crypto::PrivateKey& key, ExpertAdvisory* advisory) {
  advisory->signature = crypto::Sign(key, AdvisoryMessage(*advisory));
}

bool VerifyAdvisory(const crypto::TrustStore& store,
                    const ExpertAdvisory& advisory) {
  return store.VerifySignatureAs(crypto::KeyRole::kExpert, advisory.expert,
                                 AdvisoryMessage(advisory),
                                 advisory.signature);
}

XmlNode AdvisoryToXml(const ExpertAdvisory& advisory) {
  XmlNode node("advisory");
  node.SetAttribute("expert", advisory.expert);
  node.SetAttribute("software", advisory.software.ToHex());
  node.SetAttribute("flagged", advisory.flagged ? "1" : "0");
  node.SetAttribute("score", RenderScore(advisory.score));
  node.SetAttribute("behaviors", core::BehaviorSetToString(advisory.behaviors));
  node.SetAttribute("issued_at", std::to_string(advisory.issued_at));
  node.SetAttribute("sig", std::to_string(advisory.signature));
  if (!advisory.note.empty()) node.set_text(advisory.note);
  return node;
}

Result<ExpertAdvisory> AdvisoryFromXml(const XmlNode& node) {
  ExpertAdvisory advisory;
  PISREP_ASSIGN_OR_RETURN(advisory.expert, node.Attribute("expert"));
  PISREP_ASSIGN_OR_RETURN(std::string hex, node.Attribute("software"));
  PISREP_ASSIGN_OR_RETURN(advisory.software, core::SoftwareIdFromHex(hex));
  advisory.flagged = node.AttributeOr("flagged", "0") == "1";
  // Re-parsing then re-rendering the score must reproduce the signed
  // string, which RenderScore's fixed "%.2f" form guarantees.
  PISREP_ASSIGN_OR_RETURN(advisory.score,
                          util::ParseDouble(node.AttributeOr("score", "0")));
  PISREP_ASSIGN_OR_RETURN(
      advisory.behaviors,
      core::BehaviorSetFromString(node.AttributeOr("behaviors", "")));
  PISREP_ASSIGN_OR_RETURN(
      advisory.issued_at,
      util::ParseInt64(node.AttributeOr("issued_at", "0")));
  PISREP_ASSIGN_OR_RETURN(std::string sig, node.Attribute("sig"));
  PISREP_ASSIGN_OR_RETURN(std::int64_t parsed, util::ParseInt64(sig));
  advisory.signature = static_cast<crypto::Signature>(parsed);
  advisory.note = node.text();
  return advisory;
}

}  // namespace pisrep::trust
