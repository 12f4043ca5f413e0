//! The Proxy Drawer (paper Fig. 7(a)).
//!
//! "The Proxy Drawer is a store of proxies … Proxies are organized in
//! the drawer as categories, whereby each proxy is shown as a category
//! with the APIs of the proxy presented as items."

use std::fmt;

use mobivine_proxydl::{PlatformId, ProxyDescriptor};

/// One drag-and-droppable item: a single proxy API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrawerItem {
    /// The owning proxy (category) name.
    pub proxy: String,
    /// The API (semantic method) name.
    pub api: String,
    /// Display label.
    pub label: String,
}

/// One drawer category: a proxy with its API items.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrawerCategory {
    /// The proxy name.
    pub proxy: String,
    /// The drawer grouping the descriptor declares (e.g. `Telecom`).
    pub group: String,
    /// The proxy's APIs.
    pub items: Vec<DrawerItem>,
}

/// The drawer for one platform's toolkit.
#[derive(Clone, PartialEq, Eq)]
pub struct ProxyDrawer {
    platform: PlatformId,
    categories: Vec<DrawerCategory>,
}

impl fmt::Debug for ProxyDrawer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProxyDrawer")
            .field("platform", &self.platform.id().to_owned())
            .field("categories", &self.categories.len())
            .finish()
    }
}

impl ProxyDrawer {
    /// Builds the drawer for `platform` from a descriptor catalog —
    /// only proxies with a binding for the platform are *visible*
    /// (M-Proxy visibility, §3.2 feature 1).
    pub fn from_catalog(catalog: &[ProxyDescriptor], platform: PlatformId) -> Self {
        let categories = catalog
            .iter()
            .filter(|d| d.binding_for(&platform).is_some())
            .map(|d| DrawerCategory {
                proxy: d.name.clone(),
                group: d.category.clone(),
                items: d
                    .semantic
                    .methods
                    .iter()
                    .map(|m| DrawerItem {
                        proxy: d.name.clone(),
                        api: m.name.clone(),
                        label: format!("{} :: {}", d.name, m.name),
                    })
                    .collect(),
            })
            .collect();
        Self {
            platform,
            categories,
        }
    }

    /// The platform this drawer serves.
    pub fn platform(&self) -> &PlatformId {
        &self.platform
    }

    /// The visible categories, in catalog order.
    pub fn categories(&self) -> &[DrawerCategory] {
        &self.categories
    }

    /// Looks a category up by proxy name.
    pub fn category(&self, proxy: &str) -> Option<&DrawerCategory> {
        self.categories.iter().find(|c| c.proxy == proxy)
    }

    /// Looks an item up by proxy and API name (what a double-click or
    /// drag-and-drop resolves to).
    pub fn find_item(&self, proxy: &str, api: &str) -> Option<&DrawerItem> {
        self.category(proxy)
            .and_then(|c| c.items.iter().find(|i| i.api == api))
    }

    /// Total number of droppable items.
    pub fn item_count(&self) -> usize {
        self.categories.iter().map(|c| c.items.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobivine_proxydl::catalog::standard_catalog;

    #[test]
    fn s60_drawer_hides_call() {
        let drawer = ProxyDrawer::from_catalog(&standard_catalog(), PlatformId::NokiaS60);
        assert!(drawer.category("Location").is_some());
        assert!(drawer.category("SMS").is_some());
        assert!(drawer.category("Http").is_some());
        assert!(drawer.category("Call").is_none(), "no Call binding on S60");
    }

    #[test]
    fn android_drawer_shows_everything() {
        let drawer = ProxyDrawer::from_catalog(&standard_catalog(), PlatformId::Android);
        assert_eq!(drawer.categories().len(), 6);
    }

    #[test]
    fn items_are_the_semantic_methods() {
        let drawer = ProxyDrawer::from_catalog(&standard_catalog(), PlatformId::Android);
        let location = drawer.category("Location").unwrap();
        let apis: Vec<&str> = location.items.iter().map(|i| i.api.as_str()).collect();
        assert_eq!(
            apis,
            vec![
                "addProximityAlert",
                "getLocation",
                "getLocationWithPower",
                "removeProximityAlert"
            ]
        );
        assert_eq!(location.group, "Telecom");
    }

    #[test]
    fn find_item_resolves_drag_targets() {
        let drawer = ProxyDrawer::from_catalog(&standard_catalog(), PlatformId::AndroidWebView);
        let item = drawer.find_item("SMS", "sendTextMessage").unwrap();
        assert_eq!(item.label, "SMS :: sendTextMessage");
        assert!(drawer.find_item("SMS", "teleport").is_none());
        assert!(drawer.find_item("Ghost", "x").is_none());
    }

    #[test]
    fn item_count_matches_platform_coverage() {
        let android = ProxyDrawer::from_catalog(&standard_catalog(), PlatformId::Android);
        let s60 = ProxyDrawer::from_catalog(&standard_catalog(), PlatformId::NokiaS60);
        assert!(android.item_count() > s60.item_count());
    }
}
