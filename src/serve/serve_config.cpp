/**
 * @file
 * serve.* key bindings over ServeOptions.
 */

#include "serve_config.hpp"

namespace apres {

ServeConfigRegistry::ServeConfigRegistry(ServeOptions& opts)
    : KeyRegistry("apres_serve --list-keys prints the full namespace")
{
    addString("serve.socket", opts.socketPath);
    addString("serve.cacheDir", opts.cacheDir);
    addInt("serve.threads", opts.threads, 0, kMaxServeThreads);
    addInt("serve.queueDepth", opts.queueDepth, 1, 1 << 20);
    addInt("serve.maxRequestBytes", opts.maxRequestBytes, 1);
    addInt("serve.ioTimeoutMs", opts.ioTimeoutMs, 0);
    addInt("serve.cacheMaxBytes", opts.cacheMaxBytes, 0);
    addInt("serve.cacheMaxEntries", opts.cacheMaxEntries, 0);
}

} // namespace apres
